//! Introspection integration tests: `cx.*` system tables agree with the
//! server's own counters while traffic is in flight, system-table scans
//! are never memoized, `explain_analyze` forces a trace without
//! retention, the profiler populates `cx.queries`, the watchdog files
//! incidents under a fault storm (and stays silent on a clean run), and
//! an 8-client storm with a continuous introspection scanner is
//! deadlock-free and bit-identical to the same storm without it.

use context_engine::{Engine, EngineConfig};
use cx_embed::ClusteredTextModel;
use cx_serve::{FaultPlan, ServeConfig, Server, WatchdogConfig};
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Scans one `cx.*` table through the full serving path.
fn scan(server: &Arc<Server>, table: &str) -> Arc<Table> {
    let q = server.table(table).expect("system table registered");
    server.execute(&q).expect("system table scan").table
}

/// The value of an unlabelled metric row in a `cx.metrics` snapshot.
fn metric_value(metrics: &Table, name: &str) -> Option<f64> {
    let chunk = metrics.to_chunk().unwrap();
    let names = chunk.column_by_name("name").unwrap();
    let names = names.utf8_values().unwrap();
    let labels = chunk.column_by_name("labels").unwrap();
    let labels = labels.utf8_values().unwrap();
    let values = chunk.column_by_name("value").unwrap();
    let values = values.f64_values().unwrap();
    (0..names.len())
        .find(|&i| names[i] == name && labels[i].is_empty())
        .map(|i| values[i])
}

fn semantic_query(server: &Arc<Server>, target: &str) -> context_engine::Query {
    server
        .table("products")
        .unwrap()
        .semantic_filter("name", target, "m", 0.75)
        .sort(&[("product_id", true)])
}

#[test]
fn cx_tables_agree_with_server_counters_under_traffic() {
    let server = Server::new(
        build_engine(),
        ServeConfig {
            tracing: true,
            profiling: true,
            ..ServeConfig::default()
        },
    );
    for target in ["boots", "parka", "kitten", "sneakers", "coat", "puppy"] {
        server.execute(&semantic_query(&server, target)).unwrap();
    }

    // Scans while traffic is in flight: every snapshot must be readable
    // and internally consistent (counter values bounded by the counter's
    // value before and after the scan).
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let traffic_server = server.clone();
        let flag = stop.clone();
        s.spawn(move || {
            let mut lap = 0usize;
            while !flag.load(Ordering::Relaxed) {
                let target = ["boots", "parka", "kitten"][lap % 3];
                traffic_server
                    .execute(&semantic_query(&traffic_server, target))
                    .unwrap();
                lap += 1;
            }
        });
        for _ in 0..10 {
            let before = server.stats().queries;
            let metrics = scan(&server, "cx.metrics");
            let after = server.stats().queries;
            let served = metric_value(&metrics, "cx_serve_queries_total").unwrap();
            assert!(
                served >= before as f64 && served <= after as f64,
                "cx_serve_queries_total {served} outside [{before}, {after}]"
            );
            let queries = scan(&server, "cx.queries");
            assert!(
                queries.num_rows() > 0,
                "trace ring visible through cx.queries"
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiescent: exact agreement. The scanning query's own trace only
    // lands in the ring after it finishes, so a cx.queries scan sees
    // exactly the traces that existed when it started.
    let traces = server.traces().len();
    let queries = scan(&server, "cx.queries");
    assert_eq!(queries.num_rows(), traces);

    let latency_count = server.latency_histogram().snapshot().count;
    let hists = scan(&server, "cx.histograms");
    let chunk = hists.to_chunk().unwrap();
    let which = chunk.column_by_name("histogram").unwrap();
    let which = which.utf8_values().unwrap().to_vec();
    let counts = chunk.column_by_name("count").unwrap();
    let counts = counts.i64_values().unwrap().to_vec();
    let bucket_sum: i64 = which
        .iter()
        .zip(&counts)
        .filter(|(h, _)| h.as_str() == "latency")
        .map(|(_, c)| c)
        .sum();
    assert_eq!(
        bucket_sum as u64, latency_count,
        "latency buckets sum to the histogram count"
    );

    // Every outcome in the quiescent ring is a success.
    let outcomes = queries.to_chunk().unwrap();
    let outcomes = outcomes.column_by_name("outcome").unwrap();
    for outcome in outcomes.utf8_values().unwrap() {
        assert!(outcome.starts_with("ok"), "unexpected outcome {outcome:?}");
    }
}

#[test]
fn system_table_scans_are_volatile_and_never_memoized() {
    let server = Server::new(build_engine(), ServeConfig::default());
    let q = server.table("cx.metrics").unwrap();
    let first = server.execute(&q).unwrap();
    let v1 = metric_value(&first.table, "cx_serve_queries_total").unwrap();

    server.execute(&semantic_query(&server, "boots")).unwrap();

    let second = server.execute(&q).unwrap();
    assert!(
        !second.result_cache_hit,
        "cx.* results must never come from the memo"
    );
    let v2 = metric_value(&second.table, "cx_serve_queries_total").unwrap();
    assert!(
        v2 > v1,
        "second scan must observe fresh counters ({v1} -> {v2})"
    );

    // The plan itself is still cached — only the result memo is skipped —
    // and the cached entry is flagged volatile (visible via cx.plan_cache
    // too).
    assert!(server.plan_cache_entries().iter().any(|e| e.volatile));
    let plans = scan(&server, "cx.plan_cache");
    let chunk = plans.to_chunk().unwrap();
    let volatile = chunk.column_by_name("volatile").unwrap();
    assert!(volatile.bool_values().unwrap().iter().any(|&v| v));
}

#[test]
fn explain_analyze_forces_one_trace_without_retention() {
    let server = Server::new(build_engine(), ServeConfig::default());
    assert!(!server.config().tracing);
    let session = server.session();
    let q = semantic_query(&server, "boots");
    let rendered = session.explain_analyze(&q).unwrap();
    for required in ["plan_cache", "execute"] {
        assert!(
            rendered.contains(required),
            "missing {required} in:\n{rendered}"
        );
    }
    // The trace is rendered and dropped: nothing is retained in the
    // (capacity-zero) ring.
    assert!(server.last_trace().is_none());
    assert!(server.traces().is_empty());
    assert_eq!(server.stats().queries, 1);
}

#[test]
fn profiler_populates_cx_queries_and_totals() {
    let server = Server::new(
        build_engine(),
        ServeConfig {
            tracing: true,
            profiling: true,
            ..ServeConfig::default()
        },
    );
    server.execute(&semantic_query(&server, "kitten")).unwrap();

    let totals = server.profile_totals();
    assert_eq!(totals.profiled_queries, 1);
    assert!(
        totals.pairs_scored > 0,
        "semantic sweep must attribute pairs: {totals:?}"
    );
    assert!(totals.panel_tiles > 0);

    let trace = server.last_trace().expect("tracing on");
    let profile = trace.profile().expect("profiled query carries its profile");
    assert_eq!(profile.pairs_scored, totals.pairs_scored);

    let queries = scan(&server, "cx.queries");
    let chunk = queries.to_chunk().unwrap();
    let pairs = chunk.column_by_name("pairs_scored").unwrap();
    let pairs = pairs.i64_values().unwrap().to_vec();
    assert!(
        pairs.iter().any(|&p| p > 0),
        "cx.queries surfaces pairs_scored: {pairs:?}"
    );
    let simd = chunk.column_by_name("simd").unwrap();
    assert!(
        simd.utf8_values().unwrap().iter().any(|t| !t.is_empty()),
        "panel sweep SIMD path parsed from span detail"
    );
}

#[test]
fn profiled_join_counts_build_tiles_of_its_panel() {
    let engine = build_engine();
    // The join's panel is its right side: N distinct labels, each twice.
    let n: usize = 2 * 64 + 5;
    let labels: Vec<String> = (0..2 * n).map(|i| format!("label {}", i % n)).collect();
    let labels = Table::from_columns(
        Schema::new(vec![Field::new("label", DataType::Utf8)]),
        vec![Column::from_strings(labels)],
    )
    .unwrap();
    engine.register_table("labels", labels).unwrap();
    let server = Server::new(
        engine,
        ServeConfig {
            tracing: true,
            profiling: true,
            ..ServeConfig::default()
        },
    );
    let join = server.table("products").unwrap().semantic_join(
        server.table("labels").unwrap(),
        "name",
        "label",
        "m",
        0.9,
    );
    server.execute(&join).unwrap();

    let profile = server
        .last_trace()
        .and_then(|t| t.profile())
        .expect("profiled query");
    assert_eq!(profile.panel_tiles, n.div_ceil(64) as u64, "{profile:?}");
    assert_eq!(profile.pairs_scored, (12 * n) as u64, "{profile:?}");
}

/// The `pairs_scored` cell of every `cx.queries` row.
fn pairs_cells(server: &Arc<Server>) -> Vec<i64> {
    let chunk = scan(server, "cx.queries").to_chunk().unwrap();
    chunk
        .column_by_name("pairs_scored")
        .unwrap()
        .i64_values()
        .unwrap()
        .to_vec()
}

#[test]
fn concurrent_runs_attribute_their_own_pairs() {
    let server = Server::new(
        build_engine(),
        ServeConfig {
            tracing: true,
            profiling: true,
            trace_ring_capacity: 256,
            ..ServeConfig::default()
        },
    );
    server.execute(&semantic_query(&server, "kitten")).unwrap();
    // One probe against the 12 distinct product names.
    assert_eq!(pairs_cells(&server), [12]);

    // A barrier storm: every statement sweeps its own panel, so every
    // trace carries exactly its own sweep's pairs, none of its
    // neighbours'.
    let threads = 4;
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|s| {
        for target in ["boots", "parka", "coat", "puppy"] {
            let (server, barrier) = (server.clone(), barrier.clone());
            s.spawn(move || {
                barrier.wait();
                server.execute(&semantic_query(&server, target)).unwrap();
            });
        }
    });
    // The row of the earlier `cx.queries` scan sweeps nothing.
    let pairs = pairs_cells(&server);
    assert_eq!(pairs.len(), 6, "{pairs:?}");
    assert_eq!(pairs.iter().filter(|&&p| p == 12).count(), 5, "{pairs:?}");
    assert!(pairs.iter().all(|&p| p == 12 || p == 0), "{pairs:?}");
}

#[test]
fn watchdog_fires_on_fault_storm_and_is_queryable() {
    let server = Server::new(
        build_engine(),
        ServeConfig {
            watchdog: Some(WatchdogConfig {
                interval: Duration::from_millis(2),
                // Only the fault detector is armed; everything else off so
                // the test is deterministic.
                p99_regression_factor: 0.0,
                min_samples: u64::MAX,
                queue_depth_threshold: 0,
                shed_burst: 0,
                fault_burst: 1,
                window: 0,
                incident_capacity: 64,
            }),
            ..ServeConfig::default()
        },
    );
    server.set_fault_plan(Some(Arc::new(
        FaultPlan::new(0xBAD, 1.0).with_delay(Duration::from_micros(50)),
    )));

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.incidents().total() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "watchdog never fired under fault storm"
        );
        // Keep faulting; injected transient failures are expected.
        let _ = server.execute(&semantic_query(&server, "boots"));
        std::thread::sleep(Duration::from_millis(1));
    }
    server.set_fault_plan(None);

    let incidents = scan(&server, "cx.incidents");
    assert!(incidents.num_rows() > 0);
    let chunk = incidents.to_chunk().unwrap();
    let kinds = chunk.column_by_name("kind").unwrap();
    assert!(
        kinds
            .utf8_values()
            .unwrap()
            .iter()
            .any(|k| k == "fault_burst"),
        "expected a fault_burst incident"
    );
    let report = server.report();
    assert!(
        report.contains("incidents"),
        "report surfaces the incident log:\n{report}"
    );
}

#[test]
fn watchdog_stays_silent_on_clean_run() {
    let server = Server::new(
        build_engine(),
        ServeConfig {
            watchdog: Some(WatchdogConfig {
                interval: Duration::from_millis(2),
                min_samples: u64::MAX,
                ..WatchdogConfig::default()
            }),
            ..ServeConfig::default()
        },
    );
    for target in ["boots", "parka", "kitten", "sneakers"] {
        server.execute(&semantic_query(&server, target)).unwrap();
    }
    // Plenty of ticks over healthy traffic.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        server.incidents().total(),
        0,
        "{:?}",
        server.incidents().recent()
    );
}

#[test]
fn injected_timestamp_makes_snapshots_deterministic() {
    let server = Server::new(build_engine(), ServeConfig::default());
    server.set_timestamp_source(Some(Arc::new(|| 1_234_567)));

    let first = server.metrics_snapshot();
    let second = server.metrics_snapshot();
    assert_eq!(first.timestamp_ms(), Some(1_234_567));
    assert_eq!(second.timestamp_ms(), Some(1_234_567));
    let (s1, s2) = (first.sequence().unwrap(), second.sequence().unwrap());
    assert!(s2 > s1, "sequence must order snapshots ({s1} vs {s2})");
    assert!(server.metrics_json().contains("\"timestamp_ms\": 1234567"));
    assert!(server
        .prometheus()
        .contains("cx_obs_snapshot_timestamp_ms 1234567"));

    let metrics = scan(&server, "cx.metrics");
    assert_eq!(
        metric_value(&metrics, "cx_obs_snapshot_timestamp_ms"),
        Some(1_234_567.0)
    );

    server.set_timestamp_source(None);
    assert!(server.now_ms() > 1_234_567, "back on the wall clock");
}

/// One storm run: 8 clients, fixed per-client targets, `rounds`
/// executions each; returns every result table rendered row-by-row, in
/// client/round order. With `introspect`, a scanner loops over
/// `cx.queries` + `cx.metrics` until the clients finish, and the clients
/// start only once it has completed its first lap.
fn run_storm(server: &Arc<Server>, rounds: usize, introspect: bool) -> Vec<String> {
    const CLIENTS: usize = 8;
    let targets = [
        "boots",
        "parka",
        "kitten",
        "sneakers",
        "coat",
        "puppy",
        "oxfords",
        "windbreaker",
    ];
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(CLIENTS + introspect as usize));
    std::thread::scope(|s| {
        let scanner = introspect.then(|| {
            let server = server.clone();
            let flag = stop.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                let mut laps = 0u64;
                while laps == 0 || !flag.load(Ordering::Relaxed) {
                    scan(&server, "cx.queries");
                    scan(&server, "cx.metrics");
                    laps += 1;
                    if laps == 1 {
                        barrier.wait();
                    }
                }
                laps
            })
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let server = server.clone();
                let barrier = barrier.clone();
                let target = targets[i];
                s.spawn(move || {
                    barrier.wait();
                    (0..rounds)
                        .flat_map(|_| {
                            let r = server.execute(&semantic_query(&server, target)).unwrap();
                            (0..r.table.num_rows())
                                .map(|row| format!("{:?}", r.table.row(row).unwrap()))
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let rows: Vec<String> = clients
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        stop.store(true, Ordering::Relaxed);
        if let Some(handle) = scanner {
            assert!(
                handle.join().unwrap() > 0,
                "introspection client never completed a scan"
            );
        }
        rows
    })
}

#[test]
fn introspection_storm_is_deadlock_free_and_bit_identical() {
    let config = ServeConfig {
        tracing: true,
        profiling: true,
        ..ServeConfig::default()
    };
    let with = Server::new(build_engine(), config);
    let observed = run_storm(&with, 6, true);

    let without = Server::new(build_engine(), config);
    let plain = run_storm(&without, 6, false);

    assert_eq!(
        observed, plain,
        "introspection must not perturb traffic results"
    );
    assert!(
        with.stats().queries > without.stats().queries,
        "scanner queries were served too"
    );
}
