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
