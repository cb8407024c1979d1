//! Tracing-on integration tests: lifecycle span coverage, nesting and
//! ordering under a concurrent prepared storm, fault events in victim
//! traces under a seeded storm, and the Prometheus export surface
//! round-tripping through the in-tree parser.

use context_engine::{Engine, EngineConfig};
use cx_datagen::{generate_corpus, CorpusConfig};
use cx_embed::ClusteredTextModel;
use cx_expr::{col, param};
use cx_obs::{promparse, QueryTrace, SpanRecord};
use cx_serve::{FaultPlan, ServeConfig, Server};
use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
use std::sync::{Arc, Barrier};
use std::time::Duration;

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
        "blazer",
        "canine",
        "feline",
        "lace-ups",
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
            Column::from_f64((0..names.len()).map(|i| 10.0 + 3.0 * i as f64).collect()),
        ],
    )
    .unwrap();
    engine.register_table("products", products).unwrap();
    engine
}

fn span_names(spans: &[SpanRecord]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Registers `items` (1,500 generated names with prices) and `labels`
/// (1,500 generated labels) beside `products`: a semantic join between
/// them sweeps enough pairs that execution dominates a statement's wall
/// time.
fn register_join_tables(engine: &Engine) {
    let vocab = cx_datagen::vocab::all_words(&cx_datagen::table1_clusters());
    let corpus = |size, seed| {
        generate_corpus(
            &vocab,
            CorpusConfig {
                size,
                zipf_s: 0.6,
                max_words: 2,
                seed,
            },
        )
    };
    let items = Table::from_columns(
        Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]),
        vec![
            Column::from_strings(corpus(1500, 11)),
            Column::from_f64((0..1500).map(|i| (i % 200) as f64).collect()),
        ],
    )
    .unwrap();
    engine.register_table("items", items).unwrap();
    let labels = Table::from_columns(
        Schema::new(vec![Field::new("label", DataType::Utf8)]),
        vec![Column::from_strings(corpus(1500, 23))],
    )
    .unwrap();
    engine.register_table("labels", labels).unwrap();
}

/// Runs `threads` clients through a tracing server, each executing one
/// prepared semantic join with its own price bindings for a few rounds;
/// returns every execution's trace.
fn prepared_storm_traces(threads: usize) -> Vec<QueryTrace> {
    let engine = build_engine();
    register_join_tables(&engine);
    let server = Server::new(
        engine,
        ServeConfig {
            tracing: true,
            ..ServeConfig::default()
        },
    );
    let rounds = 3;
    let barrier = Arc::new(Barrier::new(threads));
    let traces: Vec<QueryTrace> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let server = server.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    let session = server.session();
                    let labels = session.table("labels").unwrap();
                    let template = session
                        .table("items")
                        .unwrap()
                        .filter(col("price").gt(param(0)))
                        .semantic_join(labels, "name", "label", "m", 0.9)
                        .sort(&[("price", true), ("label", true)])
                        .limit(20);
                    let prepared = session.prepare(&template).unwrap();
                    barrier.wait();
                    (0..rounds)
                        .map(|round| {
                            let price = (i * rounds + round) as f64;
                            let r = prepared.execute(&[Scalar::Float64(price)]).unwrap();
                            r.trace.expect("tracing is on")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(traces.len(), threads * rounds);
    traces
}

#[test]
fn concurrent_prepared_trace_covers_the_lifecycle() {
    let (mut storm_total, mut storm_attributed) = (0u64, 0u64);
    for trace in prepared_storm_traces(4) {
        let spans = trace.spans();
        let names = span_names(&spans);
        // The acceptance bar: at least six distinct lifecycle spans.
        assert!(
            names.len() >= 6,
            "expected >= 6 distinct spans, got {names:?}\n{}",
            trace.render()
        );
        for required in [
            "plan_cache",
            "bind_params",
            "admission",
            "execute",
            "panel_sweep",
        ] {
            assert!(names.contains(&required), "missing {required}: {names:?}");
        }
        // Top-level spans are built non-overlapping, so they never sum
        // past the end-to-end latency.
        let total = trace.total_ns();
        let attributed = trace.attributed_ns();
        assert!(total > 0);
        assert!(
            attributed <= total,
            "attributed {attributed} ns vs total {total} ns\n{}",
            trace.render()
        );
        assert_eq!(trace.outcome().as_deref(), Some("ok"));
        storm_total += total;
        storm_attributed += attributed;
    }
    // And they cover at least 90% of it, summed over the storm: a thread
    // preempted between two spans on a loaded host opens a gap in one
    // statement, not in the storm's total.
    let gap = storm_total - storm_attributed;
    assert!(
        gap <= storm_total / 10,
        "attributed {storm_attributed} ns vs total {storm_total} ns (gap {gap})"
    );
}

#[test]
fn lifecycle_spans_nest_and_order() {
    for trace in prepared_storm_traces(4) {
        let spans = trace.spans();
        let find = |name: &str| spans.iter().find(|s| s.name == name).expect(name);

        // Ordering: plan resolution, then binding and lowering, then
        // admission, then execution — each a top-level stage.
        let stages = ["plan_cache", "bind_params", "admission", "execute"].map(find);
        for pair in stages.windows(2) {
            assert!(
                pair[0].start_ns + pair[0].dur_ns <= pair[1].start_ns,
                "{}",
                trace.render()
            );
        }
        assert!(stages.iter().all(|s| s.depth == 0), "{}", trace.render());

        // Nesting: the join's panel sweep runs inside `execute`.
        let exec = stages[3];
        let sweep = find("panel_sweep");
        assert!(sweep.depth >= 1);
        assert!(sweep.start_ns >= exec.start_ns);
        assert!(sweep.start_ns + sweep.dur_ns <= exec.start_ns + exec.dur_ns);
    }
}

#[test]
fn fault_storm_victims_record_fault_events() {
    let server = Server::new(
        build_engine(),
        ServeConfig {
            tracing: true,
            trace_ring_capacity: 256,
            cache_results: false,
            ..ServeConfig::default()
        },
    );
    server.set_fault_plan(Some(Arc::new(
        FaultPlan::new(7, 0.5).with_delay(Duration::ZERO),
    )));

    // Serial storm: distinct thresholds defeat the plan cache so the
    // embed site keeps getting consulted; admission strikes every run.
    // Drawing order is deterministic, so seed 7 replays exactly.
    for i in 0..30 {
        let q = server.table("products").unwrap().semantic_filter(
            "name",
            "boots",
            "m",
            0.70 + 0.005 * i as f32,
        );
        let _ = server.execute(&q);
    }

    let faults = server.fault_stats().expect("plan installed");
    assert!(faults.total() > 0, "storm injected nothing: {faults:?}");

    let traces = server.traces();
    assert!(!traces.is_empty());
    let fault_traces: Vec<&QueryTrace> = traces
        .iter()
        .filter(|t| t.events().iter().any(|e| e.name == "fault"))
        .collect();
    assert!(!fault_traces.is_empty(), "no trace recorded a fault event");
    // Transient strikes trigger the retry policy; the retry is an event
    // on the same trace.
    assert!(
        traces
            .iter()
            .any(|t| t.events().iter().any(|e| e.name == "retry")),
        "no retry event recorded"
    );
    // A trace that ended in an error says so in its outcome; the render
    // carries the event line either way.
    for t in &fault_traces {
        let rendered = t.render();
        assert!(rendered.contains("! fault"), "{rendered}");
    }
}

#[test]
fn prometheus_snapshot_roundtrips_with_every_counter() {
    let server = Server::new(
        build_engine(),
        ServeConfig {
            tracing: true,
            ..ServeConfig::default()
        },
    );
    // Touch every subsystem so per-model and per-operator families exist.
    server.set_fault_plan(Some(Arc::new(FaultPlan::new(3, 0.0))));
    let q = server
        .table("products")
        .unwrap()
        .semantic_filter("name", "boots", "m", 0.8);
    server.execute(&q).unwrap();
    server.execute(&q).unwrap();
    let session = server.session();
    let template = session
        .table("products")
        .unwrap()
        .semantic_filter_param("name", 0, "m", 0.8);
    let prepared = session.prepare(&template).unwrap();
    prepared.execute(&[Scalar::from("parka")]).unwrap();

    let text = server.prometheus();
    let parsed = promparse::parse(&text).expect("server exposition must parse");

    // Every ServerStats / LifecycleStats / FaultStats counter, the cache
    // rates, and the histogram summaries.
    for name in [
        "cx_serve_queries_total",
        "cx_serve_sessions_total",
        "cx_serve_prepared_queries_total",
        "cx_serve_result_cache_hits_total",
        "cx_serve_plan_cache_hits_total",
        "cx_serve_plan_cache_misses_total",
        "cx_serve_plan_cache_invalidations_total",
        "cx_serve_plan_cache_evictions_total",
        "cx_serve_plan_cache_len",
        "cx_serve_plan_cache_hit_rate",
        "cx_serve_admission_admitted_total",
        "cx_serve_admission_waited_total",
        "cx_serve_admission_shed_total",
        "cx_serve_admission_abandoned_total",
        "cx_serve_admission_in_use",
        "cx_serve_admission_active",
        "cx_serve_admission_capacity",
        "cx_serve_deadline_exceeded_total",
        "cx_serve_cancelled_total",
        "cx_serve_budget_exceeded_total",
        "cx_serve_transient_failures_total",
        "cx_serve_retries_total",
        "cx_serve_contained_panics_total",
        "cx_serve_sql_statements_total",
        "cx_serve_sql_auto_param_total",
        "cx_serve_sql_auto_param_shape_hits_total",
        "cx_serve_sql_exact_fallback_total",
        "cx_serve_sql_errors_total",
        "cx_serve_sql_shape_hit_rate",
        "cx_serve_faults_injected_total",
        "cx_serve_query_latency_ns",
        "cx_serve_query_latency_ns_max",
        "cx_serve_queue_wait_ns",
        "cx_exec_operator_rows_total",
        "cx_exec_operator_latency_ns",
        "cx_obs_trace_ring_len",
        "cx_serve_profiled_queries_total",
        "cx_serve_profile_cpu_ns_total",
        "cx_serve_profile_allocs_total",
        "cx_serve_profile_alloc_bytes_total",
        "cx_serve_profile_pairs_scored_total",
        "cx_serve_profile_panel_tiles_total",
        "cx_serve_profile_bytes_charged_total",
        "cx_obs_incidents_total",
        "cx_obs_incidents_retained",
        "cx_serve_simd_info",
    ] {
        assert!(
            parsed.contains(name),
            "metric missing from exposition: {name}"
        );
    }

    // Values survive the round trip.
    let stats = server.stats();
    assert_eq!(
        parsed.value("cx_serve_queries_total", &[]),
        Some(stats.queries as f64)
    );
    assert_eq!(
        parsed.value("cx_serve_prepared_queries_total", &[]),
        Some(stats.prepared_queries as f64)
    );
    // One fault site counter per site label.
    for site in ["embed", "admission"] {
        assert_eq!(
            parsed.value("cx_serve_faults_injected_total", &[("site", site)]),
            Some(0.0),
            "{site}"
        );
    }
    // Latency quantiles are present and ordered.
    let p50 = parsed
        .value("cx_serve_query_latency_ns", &[("quantile", "0.5")])
        .unwrap();
    let p99 = parsed
        .value("cx_serve_query_latency_ns", &[("quantile", "0.99")])
        .unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} p99 {p99}");

    // JSON rendering exists and carries the same counters.
    let json = server.metrics_json();
    assert!(json.contains("\"cx_serve_queries_total\""));
    assert!(json.contains("\"p99\""));
}
