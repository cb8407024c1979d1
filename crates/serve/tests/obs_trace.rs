//! Tracing-on integration tests: span nesting and ordering across the
//! MQO group-drain path, shared-span attribution to every member, fault
//! events in victim traces under a seeded storm, and the Prometheus
//! export surface round-tripping through the in-tree parser.

use context_engine::{Engine, EngineConfig};
use cx_embed::ClusteredTextModel;
use cx_obs::{promparse, QueryTrace, SpanRecord};
use cx_serve::{FaultPlan, ServeConfig, Server};
use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
use std::sync::{Arc, Barrier};
use std::time::Duration;

mod common;

fn build_engine() -> Arc<Engine> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let specs = cx_datagen::table1_clusters();
    let space = Arc::new(cx_datagen::build_space(&specs, 64, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 7)));
    let names = [
        "boots", "parka", "kitten", "sneakers", "coat", "puppy", "oxfords", "windbreaker",
        "blazer", "canine", "feline", "lace-ups",
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

/// Runs a storm of prepared executions with distinct bindings through a
/// tracing server sized so the leader lingers a real window and the
/// whole storm coalesces into shared groups; returns the traces of the
/// results that were answered by a shared sweep.
fn coalesced_prepared_traces(threads: usize) -> Vec<QueryTrace> {
    let engine = build_engine();
    let latch = common::Latch::register(&engine);
    let server = Server::new(
        engine,
        ServeConfig {
            tracing: true,
            // group_max above the thread count: the group seals on
            // linger expiry, so queue waits dominate the timeline and
            // the span sum vs. total assertion is timing-robust.
            scan_group_max: threads * 2,
            scan_linger: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    );
    let targets = ["boots", "parka", "kitten", "sneakers", "coat", "puppy"];
    assert!(threads <= targets.len());
    // Contention is pinned (see `common`), so the first leader lingers
    // and pulls every concurrent sibling into its group; each thread
    // also runs a *sequence* of executions with fresh bindings, so a
    // sibling that wakes late still finds a later round to join.
    let _held = latch.hold_statement(&server);
    let mut traces: Vec<QueryTrace> = Vec::new();
    for attempt in 0..5 {
        let rounds = 4;
        let barrier = Arc::new(Barrier::new(threads));
        let storm_traces: Vec<QueryTrace> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let server = server.clone();
                    let barrier = barrier.clone();
                    let target = targets[i];
                    s.spawn(move || {
                        let session = server.session();
                        let template = session
                            .table("products")
                            .unwrap()
                            .semantic_filter_param("name", 0, "m", 0.75)
                            .sort(&[("product_id", true)]);
                        let prepared = session.prepare(&template).unwrap();
                        barrier.wait();
                        (0..rounds)
                            .filter_map(|round| {
                                let binding = format!("{target} {attempt} {round}");
                                let r = prepared
                                    .execute(&[Scalar::from(binding.as_str())])
                                    .unwrap();
                                r.shared_scan.then(|| r.trace.expect("tracing is on"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        traces.extend(storm_traces);
        if traces.len() >= 2 {
            break;
        }
    }
    assert!(
        traces.len() >= 2,
        "storm failed to coalesce in 5 attempts: {:?}",
        server.scan_sharing_stats()
    );
    assert!(server.sweep_histogram().snapshot().count >= 1);
    traces
}

#[test]
fn coalesced_prepared_trace_covers_the_lifecycle() {
    for trace in coalesced_prepared_traces(6) {
        let spans = trace.spans();
        let names = span_names(&spans);
        // The acceptance bar: at least six distinct lifecycle spans.
        assert!(
            names.len() >= 6,
            "expected >= 6 distinct spans, got {names:?}\n{}",
            trace.render()
        );
        for required in ["plan_cache", "scan_queue_wait", "admission", "shared_sweep", "execute"] {
            assert!(names.contains(&required), "missing {required}: {names:?}");
        }
        // Top-level spans are built non-overlapping, so their sum must
        // land within 10% of the end-to-end latency.
        let total = trace.total_ns();
        let attributed = trace.attributed_ns();
        assert!(total > 0);
        let gap = total.abs_diff(attributed);
        assert!(
            gap <= total / 10,
            "attributed {attributed} ns vs total {total} ns (gap {gap})\n{}",
            trace.render()
        );
        assert!(trace.outcome().as_deref() == Some("ok (shared scan)"), "{:?}", trace.outcome());
    }
}

#[test]
fn drain_spans_nest_order_and_tag_shared_work() {
    let traces = coalesced_prepared_traces(6);
    let mut saw_follower = false;
    for trace in &traces {
        let spans = trace.spans();
        let find = |name: &str| spans.iter().find(|s| s.name == name);

        // The shared sweep is attributed to *every* member, tagged.
        let sweep = find("shared_sweep").expect("every member gets the sweep span");
        assert!(sweep.shared, "shared_sweep must carry shared=true");
        assert_eq!(sweep.depth, 0);
        if sweep.detail.starts_with("follower") {
            saw_follower = true;
        }

        // The group admission permit is shared work too.
        let admission = find("admission").expect("admission span");
        assert!(admission.shared);
        assert_eq!(admission.detail, "group");

        // Ordering: plan resolution, then the scan-queue linger, then
        // admission, then the sweep, then this member's epilogue.
        let pc = find("plan_cache").unwrap();
        let wait = find("scan_queue_wait").unwrap();
        let epi = find("epilogue").expect("group members run epilogues");
        assert!(pc.start_ns <= wait.start_ns);
        assert!(wait.start_ns <= admission.start_ns);
        assert!(admission.start_ns <= sweep.start_ns);
        assert!(sweep.start_ns + sweep.dur_ns <= epi.start_ns + epi.dur_ns);

        // Nesting: the member's execute runs inside its epilogue.
        let exec = find("execute").unwrap();
        assert_eq!(epi.depth, 0);
        assert_eq!(exec.depth, 1);
        assert!(exec.start_ns >= epi.start_ns);
        assert!(exec.start_ns + exec.dur_ns <= epi.start_ns + epi.dur_ns + 1_000_000);
    }
    assert!(saw_follower, "no follower-attributed sweep span seen");

    // The leader's trace additionally hosts the sweep's internal spans,
    // nested one level down (panel sweep instrumentation in cx_mqo).
    let nested_panel = traces.iter().any(|t| {
        t.spans()
            .iter()
            .any(|s| s.name == "panel_sweep" && s.depth >= 1)
    });
    assert!(nested_panel, "leader trace missing nested panel_sweep span");
}

#[test]
fn fault_storm_victims_record_fault_events() {
    let server = Server::new(
        build_engine(),
        ServeConfig {
            tracing: true,
            trace_ring_capacity: 256,
            cache_results: false,
            mqo: false,
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
        let q = server
            .table("products")
            .unwrap()
            .semantic_filter("name", "boots", "m", 0.70 + 0.005 * i as f32);
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
    // Transient strikes trigger the solo retry policy; the retry is an
    // event on the same trace.
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
        ServeConfig { tracing: true, ..ServeConfig::default() },
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
    // rates, the histogram summaries, and the per-model batcher family.
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
        "cx_serve_scan_submitted_total",
        "cx_serve_scan_groups_total",
        "cx_serve_scan_grouped_queries_total",
        "cx_serve_scan_shared_groups_total",
        "cx_serve_scan_shared_queries_total",
        "cx_serve_scan_max_group",
        "cx_serve_scan_panel_rows_saved_total",
        "cx_serve_scan_pairs_saved_total",
        "cx_serve_scan_sweep_fallbacks_total",
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
        "cx_serve_batcher_requests_total",
        "cx_serve_batcher_texts_requested_total",
        "cx_serve_batcher_texts_enqueued_total",
        "cx_serve_batcher_texts_already_cached_total",
        "cx_serve_batcher_texts_coalesced_total",
        "cx_serve_batcher_batches_total",
        "cx_serve_batcher_batched_texts_total",
        "cx_serve_batcher_coalesced_batches_total",
        "cx_serve_batcher_max_batch_size",
        "cx_serve_batcher_max_batch_submitters",
        "cx_serve_batcher_failed_batches_total",
        "cx_serve_query_latency_ns",
        "cx_serve_query_latency_ns_max",
        "cx_serve_queue_wait_ns",
        "cx_serve_sweep_ns",
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
        assert!(parsed.contains(name), "metric missing from exposition: {name}");
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
    for site in ["embed", "admission", "sweep", "drain", "epilogue"] {
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
