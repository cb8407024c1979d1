//! The traced run: per-layer metrics measured from outside the engine, by
//! timing its public functions. After the same set-up as the untraced
//! run it drives half the window untraced and half with the counting
//! allocator armed and a span around every statement, then replays a
//! sample of statements single-threaded through the public functions one
//! step at a time, then probes the embed, kernel and storage layers on
//! the workload's own columns. `ServeConfig::tracing` stays off.

use crate::driver::{self, Sample};
use crate::spans::{self, Recorder};
use crate::sut::{Catalog, Sut};
use crate::workloads::{Arrival, ColumnRef, Workload, MODEL};
use crate::{alloc, drive, median, Outcome, WARMUP};
use context_engine::Query;
use cx_embed::EmbeddingCache;
use cx_exec::logical::LogicalPlan;
use cx_serve::{ServerStats, SqlResponse};
use cx_storage::Bitmap;
use cx_vector::VectorArena;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every per-layer metric, in the order it is printed. A layer the
/// workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("plan.lift_us", "us"),
    ("optimizer.optimize_us", "us"),
    ("exec.lower_us", "us"),
    ("exec.execute_ms", "ms"),
    ("exec.rows_scanned_per_row_out", "rows/row"),
    ("serve.overhead_us", "us"),
    ("serve.shape_hit_share", "ratio"),
    ("serve.memo_hit_share", "ratio"),
    ("serve.plan_evictions", "count"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.late_share", "ratio"),
    ("class.dash.p50_ms", "ms"),
    ("class.adhoc.p50_ms", "ms"),
    ("class.lookup.p50_ms", "ms"),
    ("class.heavy.p50_ms", "ms"),
    ("mqo.shared_scan_share", "ratio"),
    ("mqo.members_per_sweep", "count"),
    ("embed.cold_us_per_text", "us"),
    ("embed.cache_get_ns", "ns"),
    ("embed.cache_hit_share", "ratio"),
    ("vector.sweep_ns_per_pair", "ns"),
    ("vector.matrix_ns_per_pair", "ns"),
    ("vector.panel_build_ms", "ms"),
    ("vector.computed_gbps", "GB/s"),
    ("storage.scan_clone_ms", "ms"),
    ("storage.filter_ms", "ms"),
    ("storage.bytes_cloned", "bytes"),
    ("alloc.per_statement", "count"),
    ("alloc.bytes_per_statement", "bytes"),
    ("trace.overhead_pct", "%"),
    ("staged.statements", "count"),
    ("staged.child_coverage", "ratio"),
    ("staged.execute_share", "ratio"),
];

type Values = BTreeMap<&'static str, f64>;

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median wall time of `reps` runs of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// The public counters a traced window is read off, taken before and
/// after it.
struct Reading {
    stats: ServerStats,
    /// `(hits, misses)` of the engine's embedding cache.
    embed: (u64, u64),
    /// Queue-wait histogram buckets: `low → (mid, count)`.
    queue_wait: BTreeMap<u64, (u64, u64)>,
    allocs: (u64, u64),
}

impl Reading {
    fn take(sut: &Sut) -> Reading {
        let cache = sut.engine().embedding_cache(MODEL);
        let buckets = sut.server.queue_wait_histogram().nonzero_buckets();
        Reading {
            stats: sut.server.stats(),
            embed: cache.map_or((0, 0), |c| (c.hits(), c.misses())),
            queue_wait: buckets
                .into_iter()
                .map(|b| (b.low, (b.mid, b.count)))
                .collect(),
            allocs: alloc::totals(),
        }
    }
}

/// Median (bucket midpoint, ns) of what a histogram gained between two
/// readings of its buckets.
fn delta_p50(before: &BTreeMap<u64, (u64, u64)>, after: &BTreeMap<u64, (u64, u64)>) -> u64 {
    let gained: Vec<(u64, u64)> = after
        .iter()
        .map(|(low, &(mid, count))| (mid, count - before.get(low).map_or(0, |b| b.1)))
        .collect();
    let total: u64 = gained.iter().map(|g| g.1).sum();
    let mut seen = 0;
    for (mid, count) in gained {
        seen += count;
        if count > 0 && seen * 2 >= total {
            return mid;
        }
    }
    0
}

fn serve_metrics(v: &mut Values, before: &Reading, after: &Reading) {
    let (b, a) = (&before.stats, &after.stats);
    let statements = a.sql.statements - b.sql.statements;
    let shape_hits = a.sql.auto_param_shape_hits - b.sql.auto_param_shape_hits;
    v.insert(
        "serve.shape_hit_share",
        ratio(shape_hits, a.sql.auto_param - b.sql.auto_param),
    );
    v.insert(
        "serve.memo_hit_share",
        ratio(a.result_cache_hits - b.result_cache_hits, statements),
    );
    v.insert(
        "serve.plan_evictions",
        (a.plan_cache.evictions - b.plan_cache.evictions) as f64,
    );
    v.insert(
        "serve.queue_wait_p50_us",
        delta_p50(&before.queue_wait, &after.queue_wait) as f64 / 1e3,
    );
    v.insert("serve.shed", (a.admission.shed - b.admission.shed) as f64);
    v.insert(
        "serve.retries",
        (a.lifecycle.retries - b.lifecycle.retries) as f64,
    );
    let (scans_b, scans_a) = (&b.scan_sharing, &a.scan_sharing);
    v.insert(
        "mqo.shared_scan_share",
        ratio(scans_a.shared_queries - scans_b.shared_queries, statements),
    );
    v.insert(
        "mqo.members_per_sweep",
        ratio(
            scans_a.grouped_queries - scans_b.grouped_queries,
            scans_a.groups - scans_b.groups,
        ),
    );
    let (hits, misses) = (
        after.embed.0 - before.embed.0,
        after.embed.1 - before.embed.1,
    );
    v.insert("embed.cache_hit_share", ratio(hits, hits + misses));
    v.insert(
        "alloc.per_statement",
        ratio(after.allocs.0 - before.allocs.0, statements),
    );
    v.insert(
        "alloc.bytes_per_statement",
        ratio(after.allocs.1 - before.allocs.1, statements),
    );
}

/// Rows of the base tables a plan scans.
fn rows_scanned(plan: &LogicalPlan, sut: &Sut) -> u64 {
    match plan {
        LogicalPlan::Scan { source, .. } => sut
            .engine()
            .catalog()
            .table(source)
            .map_or(0, |t| t.num_rows() as u64),
        other => other
            .children()
            .into_iter()
            .map(|c| rows_scanned(c, sut))
            .sum(),
    }
}

/// One step of the staged replay: a child span of the statement's
/// `staged` root, and its duration in µs under the step's name.
struct Step<'a> {
    rec: &'a Recorder,
    root: usize,
    index: u64,
    took: &'a mut BTreeMap<&'static str, f64>,
}

impl Step<'_> {
    fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = self.rec.scope(name, Some(self.root), self.index, |_| f());
        self.took.insert(name, start.elapsed().as_secs_f64() * 1e6);
        out
    }
}

/// Replays `count` fresh statements of the workload's primary class one
/// step at a time on this thread: first whole through `Session::sql`, then
/// through parse → bind → lift → optimize → lower → execute, each step a
/// child span of a `staged` root.
fn staged_replay(sut: &Sut, first: u64, count: usize, v: &mut Values) {
    let rec = &sut.recorder;
    let engine = sut.engine();
    let session = sut.session(0);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut steps: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut overhead, mut scanned, mut returned) = (Vec::new(), 0u64, 0u64);
    let (mut execute, mut whole) = (0.0, 0.0);
    let primary = (first..).map(|index| (index, sut.generator.statement(0, index)));
    for (index, statement) in primary
        .filter(|(_, s)| s.class == sut.workload.primary_class)
        .take(count)
    {
        let sql = statement.sql;
        let served_start = Instant::now();
        let served = rec.scope("session_sql", None, index, |_| session.sql(&sql));
        let served_us = us(served_start.elapsed());
        let Ok(SqlResponse::Rows(served)) = served else {
            panic!("staged statement failed: {sql}")
        };

        let mut took: BTreeMap<&'static str, f64> = BTreeMap::new();
        rec.scope("staged", None, index, |root| {
            let mut step = Step {
                rec,
                root,
                index,
                took: &mut took,
            };
            let parsed = step.run("sql.parse", || {
                cx_sql::parse(&sql).expect("generated SQL parses")
            });
            let bound = step.run("sql.bind", || {
                cx_sql::bind(&parsed, &Catalog(engine)).expect("generated SQL binds")
            });
            let cx_sql::Bound::Query(query) = bound else {
                panic!("not a query: {sql}")
            };
            step.run("plan.lift", || {
                let (template, literals) = query.plan.lift_literals();
                std::hint::black_box((template.shape_fingerprint(), literals));
            });
            let planned = step.run("optimizer.optimize", || {
                engine.optimize_query(&Query::from_plan(query.plan.clone()))
            });
            let lowered = step.run("exec.lower", || {
                engine.lower_plan(&planned.plan).expect("plan lowers")
            });
            let table = step.run("exec.execute", || {
                cx_exec::collect_table(lowered.as_ref()).expect("plan executes")
            });
            scanned += rows_scanned(&query.plan, sut);
            returned += table.num_rows() as u64;
        });
        // What a warm statement also does itself: parse, bind, lift and
        // execute, plus optimize and lower when its shape was not cached.
        // The rest of its latency is the serving layer's.
        let mut own =
            took["sql.parse"] + took["sql.bind"] + took["plan.lift"] + took["exec.execute"];
        if !served.plan_cache_hit {
            own += took["optimizer.optimize"] + took["exec.lower"];
        }
        overhead.push(served_us - own);
        execute += took["exec.execute"];
        whole += served_us;
        for (name, t) in took {
            steps.entry(name).or_default().push(t);
        }
    }
    let mut take = |name: &'static str| median(steps.remove(name).unwrap_or_default());
    v.insert("sql.parse_us", take("sql.parse"));
    v.insert("sql.bind_us", take("sql.bind"));
    v.insert("plan.lift_us", take("plan.lift"));
    v.insert("optimizer.optimize_us", take("optimizer.optimize"));
    v.insert("exec.lower_us", take("exec.lower"));
    v.insert("exec.execute_ms", take("exec.execute") / 1e3);
    v.insert(
        "exec.rows_scanned_per_row_out",
        scanned as f64 / returned.max(1) as f64,
    );
    v.insert("serve.overhead_us", median(overhead));
    v.insert("staged.statements", count as f64);
    v.insert(
        "staged.execute_share",
        if whole > 0.0 { execute / whole } else { 0.0 },
    );

    let spans = rec.spans();
    let own = spans::self_times(&spans);
    let (mut roots, mut uncovered) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == "staged") {
        roots += s.duration_ns();
        uncovered += own[s.id];
    }
    v.insert("staged.child_coverage", ratio(roots - uncovered, roots));
}

fn distinct(sut: &Sut, (table, column): ColumnRef) -> Vec<String> {
    let table = sut
        .engine()
        .catalog()
        .table(table)
        .expect("workload table is registered");
    let column = table
        .column_by_name(column)
        .expect("workload column exists");
    let mut seen = std::collections::HashSet::new();
    column
        .utf8_values()
        .expect("semantic column is Utf8")
        .iter()
        .filter(|v| seen.insert(v.as_str()))
        .cloned()
        .collect()
}

/// Embed, kernel and panel probes on the workload's semantic columns.
fn semantic_probes(sut: &Sut, panel: ColumnRef, probe: ColumnRef, v: &mut Values) {
    let model = sut
        .engine()
        .catalog()
        .models()
        .get(MODEL)
        .expect("workload model is registered");
    let texts = distinct(sut, panel);
    let n = texts.len() as f64;
    println!(
        "panel {}.{}: {n} distinct values, dim {}",
        panel.0,
        panel.1,
        model.dim()
    );
    let cache = EmbeddingCache::new(model);
    let dim = cache.dim();
    let mut out = vec![0.0f32; texts.len() * dim];
    let cold = time_median(1, || cache.get_batch_into(&texts, dim, &mut out));
    let warm = time_median(3, || cache.get_batch_into(&texts, dim, &mut out));
    v.insert("embed.cold_us_per_text", cold.as_secs_f64() * 1e6 / n);
    v.insert("embed.cache_get_ns", warm.as_secs_f64() * 1e9 / n);

    let build = time_median(3, || VectorArena::from_texts(&cache, &texts));
    v.insert("vector.panel_build_ms", build.as_secs_f64() * 1e3);
    let arena = VectorArena::from_texts(&cache, &texts);
    let block = arena.as_block();
    let mut scores = vec![0.0f32; block.rows];
    let sweep = time_median(9, || {
        cx_vector::dot_block(arena.row(0), block.data, block.stride, &mut scores)
    });
    v.insert("vector.sweep_ns_per_pair", sweep.as_secs_f64() * 1e9 / n);
    // Computed, not measured: bytes the sweep must read ÷ its time.
    v.insert(
        "vector.computed_gbps",
        (block.rows * block.stride * 4) as f64 / sweep.as_secs_f64() / 1e9,
    );

    let mut probes = distinct(sut, probe);
    probes.truncate(256);
    let probe_arena = VectorArena::from_texts(&cache, &probes);
    let pb = probe_arena.as_block();
    let mut matrix = vec![0.0f32; pb.rows * block.rows];
    let sweep = time_median(3, || {
        cx_vector::scores_matrix(
            pb.data,
            pb.stride,
            pb.rows,
            dim,
            block.data,
            block.stride,
            block.rows,
            &mut matrix,
        )
    });
    v.insert(
        "vector.matrix_ns_per_pair",
        sweep.as_secs_f64() * 1e9 / (pb.rows * block.rows) as f64,
    );
}

/// What a scan pays before any operator runs: a clone of every chunk, and
/// a `Chunk::filter` keeping every other row.
fn storage_probes(sut: &Sut, v: &mut Values) {
    let catalog = sut.engine().catalog();
    let tables: Vec<_> = catalog
        .table_names()
        .iter()
        .filter_map(|n| catalog.table(n))
        .collect();
    let chunks = || tables.iter().flat_map(|t| t.chunks());
    let clone = time_median(3, || chunks().map(|c| c.clone().num_rows()).sum::<usize>());
    let masks: Vec<Bitmap> = chunks()
        .map(|c| Bitmap::from_bools((0..c.num_rows()).map(|r| r % 2 == 0)))
        .collect();
    let filter = time_median(3, || {
        chunks()
            .zip(&masks)
            .map(|(c, m)| c.filter(m).expect("mask matches chunk").num_rows())
            .sum::<usize>()
    });
    v.insert("storage.scan_clone_ms", clone.as_secs_f64() * 1e3);
    v.insert("storage.filter_ms", filter.as_secs_f64() * 1e3);
    v.insert(
        "storage.bytes_cloned",
        chunks().map(|c| c.memory_bytes()).sum::<usize>() as f64,
    );
}

/// Median latency of each `serve.mixed` traffic class, and how late the
/// open-loop generator ran.
fn class_metrics(sut: &Sut, samples: &[Sample], from: Duration, to: Duration, v: &mut Values) {
    v.insert(
        "serve.late_share",
        driver::summarize(samples, from, to).late_share,
    );
    let mut by_class: BTreeMap<&'static str, Vec<Sample>> = BTreeMap::new();
    for s in samples {
        let class = sut
            .generator
            .statement(sut.stream_of(s.client), s.index)
            .class;
        by_class.entry(class).or_default().push(*s);
    }
    for (class, metric) in [
        ("dash", "class.dash.p50_ms"),
        ("adhoc", "class.adhoc.p50_ms"),
        ("lookup", "class.lookup.p50_ms"),
        ("heavy", "class.heavy.p50_ms"),
    ] {
        let sorted = driver::latencies(by_class.get(class).map_or(&[], Vec::as_slice), from, to);
        if !sorted.is_empty() {
            v.insert(metric, driver::percentile(&sorted, 0.5) as f64 / 1e6);
        }
    }
}

fn next_index(samples: &[Sample]) -> u64 {
    samples.iter().map(|s| s.index + 1).max().unwrap_or(0)
}

pub fn traced(workload: Workload, seed: u64, window: Duration) -> Outcome {
    let sut = Sut::set_up(workload, seed);
    let quarter = window / 4;
    let mut v = Values::new();

    // Untraced quarter, traced half, untraced quarter: a drift of the
    // host's speed falls on both sides of the comparison.
    let lead_samples = drive(&sut, 0, seed, WARMUP, quarter);
    let lead = driver::summarize(&lead_samples, WARMUP, WARMUP + quarter);
    class_metrics(&sut, &lead_samples, WARMUP, WARMUP + quarter, &mut v);

    let before = Reading::take(&sut);
    alloc::arm(true);
    sut.trace(true);
    let traced_samples = drive(
        &sut,
        next_index(&lead_samples),
        seed,
        Duration::ZERO,
        quarter * 2,
    );
    sut.trace(false);
    alloc::arm(false);
    let after = Reading::take(&sut);
    let traced = driver::summarize(&traced_samples, Duration::ZERO, quarter * 2);
    serve_metrics(&mut v, &before, &after);

    let tail_samples = drive(
        &sut,
        next_index(&traced_samples),
        seed,
        Duration::ZERO,
        quarter,
    );
    let tail = driver::summarize(&tail_samples, Duration::ZERO, quarter);
    let next = next_index(&tail_samples);
    let (plain_qps, plain_p50) = (
        (lead.qps + tail.qps) / 2.0,
        (lead.p50_ms + tail.p50_ms) / 2.0,
    );
    // An open loop's qps is pinned to its arrival rate, so there the
    // harness's own cost is read off the median latency instead.
    let overhead = match workload.arrival {
        Arrival::Closed { .. } => 1.0 - traced.qps / plain_qps,
        Arrival::Open { .. } => traced.p50_ms / plain_p50 - 1.0,
    };
    v.insert("trace.overhead_pct", overhead * 100.0);

    staged_replay(&sut, next, workload.staged_sample, &mut v);
    storage_probes(&sut, &mut v);
    if let Some((panel, probe)) = workload.semantic_columns() {
        semantic_probes(&sut, panel, probe, &mut v);
    }

    let path = trace_path(workload);
    match spans::write_jsonl(&sut.recorder.spans(), &path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "windows untraced {plain_qps:.2} statements/s p50 {plain_p50:.3} ms, traced {:.2} statements/s p50 {:.3} ms ({} samples)",
        traced.qps, traced.p50_ms, traced.samples
    );
    Outcome {
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, v.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
        attempted: lead.attempted + traced.attempted + tail.attempted,
        failed: lead.failed + traced.failed + tail.failed,
        verdict: sut.check(),
    }
}

/// `benchmark/out/<workload>.trace.jsonl`, inside the checkout.
fn trace_path(workload: Workload) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.jsonl", workload.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_p50_sees_only_what_the_window_added() {
        let before: BTreeMap<u64, (u64, u64)> = [(100, (150, 1000))].into();
        let after: BTreeMap<u64, (u64, u64)> =
            [(100, (150, 1001)), (800, (900, 10)), (5000, (5500, 3))].into();
        assert_eq!(
            delta_p50(&before, &after),
            900,
            "the 1000 old fast samples do not count"
        );
        assert_eq!(delta_p50(&after, &after), 0, "nothing gained");
    }

    #[test]
    fn every_per_layer_metric_is_named_once() {
        let names: std::collections::HashSet<_> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
