//! A top-k semantic join scores a resident, cone-tiled panel of its build
//! column. The panel is keyed by table identity, so re-registering the
//! table under the same name is never answered from the old panel.

use context_analytics::{Engine, EngineConfig, ServeConfig, Server, SqlResponse};
use cx_embed::HashNGramModel;
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::Arc;

const TOP_K: &str = "SELECT id, label, similarity FROM probes \
     SEMANTIC JOIN labels ON SIM(probe, label) >= 0.0 \
     ORDER BY similarity DESC, id LIMIT 2";

/// 200 distinct labels, each on two rows: two words of a small vocabulary
/// with `suffix` on each, and a number.
fn labels(suffix: &str) -> Table {
    let words = [
        "amber", "basil", "cedar", "delta", "ember", "fjord", "garnet", "heron",
    ];
    let names: Vec<String> = (0..400)
        .map(|i| i % 200)
        .map(|i| format!("{}{suffix} {}{suffix} {i}", words[i % 8], words[i / 8 % 8]))
        .collect();
    Table::from_columns(
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("label", DataType::Utf8),
        ]),
        vec![
            Column::from_i64((0..400).collect()),
            Column::from_strings(names),
        ],
    )
    .unwrap()
}

fn probes(probe: &str) -> Table {
    Table::from_columns(
        Schema::new(vec![Field::new("probe", DataType::Utf8)]),
        vec![Column::from_strings([probe, "cedar heron"])],
    )
    .unwrap()
}

fn server(labels: Table, probe: &str) -> Arc<Server> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.register_model(Arc::new(HashNGramModel::new(3)));
    engine.register_table("probes", probes(probe)).unwrap();
    engine.register_table("labels", labels).unwrap();
    // No result memo: every statement executes.
    let config = ServeConfig {
        cache_results: false,
        ..ServeConfig::default()
    };
    Server::new(engine, config)
}

/// `(id, label, score bits)` of every result row.
fn rows(server: &Arc<Server>) -> Vec<(i64, String, u64)> {
    let SqlResponse::Rows(r) = server.session().sql(TOP_K).unwrap() else {
        panic!("a SELECT returns rows");
    };
    let t = r.table;
    let ids = t
        .column_by_name("id")
        .unwrap()
        .i64_values()
        .unwrap()
        .to_vec();
    let labels = t
        .column_by_name("label")
        .unwrap()
        .utf8_values()
        .unwrap()
        .to_vec();
    let scores = t
        .column_by_name("similarity")
        .unwrap()
        .f64_values()
        .unwrap()
        .to_vec();
    (0..t.num_rows())
        .map(|i| (ids[i], labels[i].clone(), scores[i].to_bits()))
        .collect()
}

/// Pairs the statement's panel sweep scored, from `EXPLAIN ANALYZE`.
fn scored(server: &Arc<Server>) -> u64 {
    let SqlResponse::Explain(text) = server
        .session()
        .sql(&format!("EXPLAIN ANALYZE {TOP_K}"))
        .unwrap()
    else {
        panic!("EXPLAIN ANALYZE renders text");
    };
    let detail = text
        .split("scored=")
        .nth(1)
        .unwrap_or_else(|| panic!("no sweep in\n{text}"));
    detail.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn re_registered_table_is_never_answered_from_a_stale_panel() {
    // The first probe matches the two rows of label 9 exactly, in both
    // versions, so the floor rises to that score at once.
    let old = server(labels(""), "basil basil 9");
    let before = rows(&old);
    assert_eq!(before[0].1, "basil basil 9");

    // Same name, changed text: every value of the new table is new.
    old.engine().register_table("labels", labels("x")).unwrap();
    old.engine()
        .register_table("probes", probes("basilx basilx 9"))
        .unwrap();
    let after = rows(&old);
    let fresh = server(labels("x"), "basilx basilx 9");
    assert_eq!(after, rows(&fresh), "the re-registered table's own answer");
    assert_eq!(after[0].1, "basilx basilx 9");

    // And it came from the new table's own resident panel, pruned. A
    // panel found under the old key would hold none of the new values:
    // the statement would fail above, or, had it fallen back to a full
    // sweep, score every pair here.
    let all_pairs = 2 * 200;
    let pruned = scored(&old);
    assert!(pruned < all_pairs, "scored {pruned} of {all_pairs} pairs");
    assert_eq!(pruned, scored(&fresh));
}

/// A semantic filter over `labels.label` behind a relational predicate.
fn filter_sql(target: &str) -> String {
    format!(
        "SELECT id, label FROM labels \
         WHERE id > 40 AND label SEMANTIC LIKE '{target}' (0.5) ORDER BY id"
    )
}

/// `(id, label)` of every row the filter keeps.
fn filtered(server: &Arc<Server>, target: &str) -> Vec<(i64, String)> {
    let SqlResponse::Rows(r) = server.session().sql(&filter_sql(target)).unwrap() else {
        panic!("a SELECT returns rows");
    };
    let t = r.table;
    let (ids, labels) = (
        t.column_by_name("id").unwrap(),
        t.column_by_name("label").unwrap(),
    );
    let labels = labels.utf8_values().unwrap().iter().cloned();
    ids.i64_values()
        .unwrap()
        .iter()
        .copied()
        .zip(labels)
        .collect()
}

/// The details of the `span` lines in `EXPLAIN ANALYZE sql`.
fn span_details(server: &Arc<Server>, sql: &str, span: &str) -> Vec<String> {
    let SqlResponse::Explain(text) = server
        .session()
        .sql(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
    else {
        panic!("EXPLAIN ANALYZE renders text");
    };
    text.lines()
        .filter(|line| line.split_whitespace().next() == Some(span))
        .map(|line| {
            line.rsplit_once('[')
                .map_or("", |(_, d)| d.trim_end_matches(']'))
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn a_filter_over_a_re_registered_table_answers_from_the_new_table() {
    let old = server(labels(""), "basil basil 9");
    assert!(!filtered(&old, "basil cedar").is_empty());
    old.engine().register_table("labels", labels("x")).unwrap();
    // A panel found under the old key holds none of the new values: the
    // statement would fail.
    let after = filtered(&old, "basilx cedarx");
    assert!(!after.is_empty());
    let fresh = server(labels("x"), "basilx basilx 9");
    assert_eq!(after, filtered(&fresh, "basilx cedarx"));
}

#[test]
fn filter_then_top_k_join_then_filter_answer_as_fresh_engines() {
    let shared = server(labels(""), "basil basil 9");
    let first = filtered(&shared, "basil cedar");
    let joined = rows(&shared);
    let again = filtered(&shared, "basil cedar");
    let fresh = || server(labels(""), "basil basil 9");
    assert_eq!(first, filtered(&fresh(), "basil cedar"));
    assert_eq!(joined, rows(&fresh()));
    assert_eq!(again, first);
}

#[test]
fn a_filter_alone_never_builds_cone_tiles() {
    let server = server(labels(""), "basil basil 9");
    let filter = filter_sql("basil cedar");
    assert_eq!(
        span_details(&server, &filter, "panel_build"),
        ["rows=200 tiles=0"]
    );
    assert!(span_details(&server, &filter, "panel_build").is_empty());
    // The first top-k join tiles the panel; later filters reuse it.
    let built = span_details(&server, TOP_K, "panel_build");
    assert_eq!(built.len(), 1);
    assert!(built[0].starts_with("rows=200 tiles=") && !built[0].ends_with("tiles=0"));
    assert!(span_details(&server, &filter, "panel_build").is_empty());
}

#[test]
fn a_filter_behind_a_price_predicate_scores_the_resident_panel_once() {
    // The benchmark's statement shape over a table in several chunks: one
    // sweep of one probe over every distinct name, however few rows the
    // price predicate keeps.
    let server = server(labels(""), "basil basil 9");
    let names = labels("").column_by_name("label").unwrap();
    let products = Table::from_columns(
        Schema::new(vec![
            Field::new("product_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]),
        vec![
            Column::from_i64((0..400).collect()),
            names,
            Column::from_f64((0..400).map(|i| i as f64).collect()),
        ],
    )
    .unwrap();
    let products = products.rechunk(64).unwrap();
    server
        .engine()
        .register_table("products", products)
        .unwrap();
    let sql = "SELECT product_id, name, price FROM products \
         WHERE price > 350.0 AND name SEMANTIC LIKE 'basil cedar' (0.5) \
         ORDER BY price DESC, product_id LIMIT 10";
    let sweeps = span_details(&server, sql, "panel_sweep");
    assert_eq!(sweeps.len(), 1, "{sweeps:?}");
    assert!(
        sweeps[0].starts_with("probes=1 candidates=200 "),
        "{sweeps:?}"
    );
}
