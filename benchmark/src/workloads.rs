//! Seeded workload generator: tables and statement streams are pure
//! functions of `--seed`. The engine only ever sees the generated SQL
//! text; statement `i` of client `c` is a function of `(seed, c, i)`, so
//! client streams are disjoint, repeat exactly between runs, and can be
//! regenerated by index when answers are checked.

use cx_datagen::corpus::ZipfSampler;
use cx_datagen::{generate_corpus, generate_dirty, synthetic_clusters, CorpusConfig, DirtyConfig};
use cx_embed::rng::{fnv1a, SplitMix64};
use cx_embed::{ClusteredTextModel, EmbeddingModel};
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::Arc;

/// The one embedding model every semantic statement names.
pub const MODEL: &str = "m";
const DIM: usize = 128;
const CLUSTERS: usize = 200;
const MEMBERS: usize = 20;

/// How statements arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each client sends its next statement when the previous one returns.
    Closed { clients: usize },
    /// Statements fall due on a fixed seeded schedule at `rate` per
    /// second, whatever the system does, served by `workers` sessions.
    Open { workers: usize, rate: f64 },
}

impl Arrival {
    /// Sessions (and driver threads) the loop runs on.
    pub fn sessions(&self) -> usize {
        match *self {
            Arrival::Closed { clients } => clients,
            Arrival::Open { workers, .. } => workers,
        }
    }
}

/// `serve.mixed` arrival rate. A literal, not recomputed per run: 46 % of
/// the closed-loop capacity (1 525 statements/s with 2 clients; one client
/// alone reaches 2 320) measured once on the reference host (2 cores,
/// AVX-512).
const SERVE_MIXED_RATE: f64 = 700.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub arrival: Arrival,
    /// Statements per client (closed loop) or from the head of the
    /// schedule (open loop) whose answers are checked against the bare
    /// engine. Sized so the check costs about two seconds.
    pub check_prefix: usize,
    /// Statements in the single-threaded staged replay of a traced run.
    pub staged_sample: usize,
    /// The traffic class the workload is about: the staged replay's
    /// front-end and execute shares are taken over its statements.
    pub primary_class: &'static str,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    SemFilter,
    SemJoin,
    Relational,
    Mixed,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "semfilter.scan100k",
        arrival: Arrival::Closed { clients: 1 },
        check_prefix: 12,
        staged_sample: 32,
        primary_class: "semfilter",
        kind: Kind::SemFilter,
    },
    Workload {
        name: "semjoin.integrate",
        arrival: Arrival::Closed { clients: 1 },
        check_prefix: 12,
        staged_sample: 16,
        primary_class: "semjoin",
        kind: Kind::SemJoin,
    },
    Workload {
        name: "relational.joinagg",
        arrival: Arrival::Closed { clients: 1 },
        check_prefix: 12,
        staged_sample: 16,
        primary_class: "joinagg",
        kind: Kind::Relational,
    },
    Workload {
        name: "serve.mixed",
        arrival: Arrival::Open {
            workers: 2,
            rate: SERVE_MIXED_RATE,
        },
        check_prefix: 256,
        staged_sample: 400,
        primary_class: "adhoc",
        kind: Kind::Mixed,
    },
];

/// A `(table, column)` pair.
pub type ColumnRef = (&'static str, &'static str);

impl Workload {
    /// The Utf8 columns the workload's semantic operators sweep, as
    /// `(panel, probe)`: the kernel probes score the probe column's
    /// distinct values against the panel column's. `None` where no
    /// statement has a semantic operator.
    pub fn semantic_columns(&self) -> Option<(ColumnRef, ColumnRef)> {
        match self.kind {
            Kind::SemFilter => Some((("products", "name"), ("products", "name"))),
            Kind::SemJoin => Some((("labels", "label"), ("feed", "title"))),
            Kind::Relational => None,
            Kind::Mixed => Some((("products", "name"), ("labels", "label"))),
        }
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The tables and model one workload runs over.
pub struct Dataset {
    pub tables: Vec<(&'static str, Table)>,
    pub model: Option<Arc<dyn EmbeddingModel>>,
}

/// One generated statement and the traffic class it belongs to.
pub struct Statement {
    pub sql: String,
    pub class: &'static str,
}

/// Generates one workload's data and statements from a seed.
pub struct Generator {
    workload: Workload,
    seed: u64,
    /// The vocabulary's synonym clusters.
    specs: Vec<cx_embed::ClusterSpec>,
    /// Probe vocabulary: every cluster name and member.
    words: Vec<String>,
    /// `serve.mixed` only: Zipf over the 256 ad-hoc shape templates.
    shape_zipf: ZipfSampler,
}

fn mix(seed: u64, tag: &str) -> u64 {
    seed ^ fnv1a(tag.as_bytes())
}

fn table(fields: Vec<(&str, DataType)>, columns: Vec<Column>) -> Table {
    let schema = Schema::new(fields.into_iter().map(|(n, t)| Field::new(n, t)).collect());
    Table::from_columns(schema, columns).expect("generated columns match their schema")
}

/// 40 category labels, the Utf8 group keys of the relational workload.
fn category(i: u64) -> String {
    format!("category_{:02}", i % 40)
}

/// Prices on a cent grid in `[5, 205)`.
fn prices(n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    (0..n)
        .map(|_| 5.0 + rng.next_range(20_000) as f64 / 100.0)
        .collect()
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let specs = synthetic_clusters(CLUSTERS, MEMBERS, mix(seed, "clusters"));
        Generator {
            workload,
            seed,
            words: cx_datagen::vocab::all_words(&specs),
            specs,
            shape_zipf: ZipfSampler::new(ADHOC_SHAPES, 1.0),
        }
    }

    fn model(&self, specs: &[cx_embed::ClusterSpec]) -> Arc<dyn EmbeddingModel> {
        let space = Arc::new(cx_datagen::build_space(specs, DIM, mix(self.seed, "space")));
        Arc::new(ClusteredTextModel::new(
            MODEL,
            space,
            mix(self.seed, "model"),
        ))
    }

    /// `products(product_id, name, price, category)`: names are Zipf 0.7
    /// phrases of up to three vocabulary words, so most are distinct.
    fn products(&self, rows: usize) -> Table {
        let names = generate_corpus(
            &self.words,
            CorpusConfig {
                size: rows,
                zipf_s: 0.7,
                max_words: 3,
                seed: mix(self.seed, "names"),
            },
        );
        let mut rng = SplitMix64::new(mix(self.seed, "products"));
        let price = prices(rows, &mut rng);
        let categories: Vec<String> = (0..rows).map(|_| category(rng.next_u64())).collect();
        table(
            vec![
                ("product_id", DataType::Int64),
                ("name", DataType::Utf8),
                ("price", DataType::Float64),
                ("category", DataType::Utf8),
            ],
            vec![
                Column::from_i64((0..rows as i64).collect()),
                Column::from_strings(names),
                Column::from_f64(price),
                Column::from_strings(categories),
            ],
        )
    }

    /// `labels(label_id, label)`: one- and two-word phrases.
    fn labels(&self, rows: usize, vocabulary: &[String]) -> Table {
        let labels = generate_corpus(
            vocabulary,
            CorpusConfig {
                size: rows,
                zipf_s: 0.7,
                max_words: 2,
                seed: mix(self.seed, "labels"),
            },
        );
        table(
            vec![("label_id", DataType::Int64), ("label", DataType::Utf8)],
            vec![
                Column::from_i64((0..rows as i64).collect()),
                Column::from_strings(labels),
            ],
        )
    }

    /// The workload's tables and model.
    pub fn dataset(&self) -> Dataset {
        let specs = &self.specs;
        match self.workload.kind {
            Kind::SemFilter => Dataset {
                tables: vec![("products", self.products(100_000))],
                model: Some(self.model(specs)),
            },
            Kind::SemJoin => {
                // Dirty titles carry typo variants the space must know, so
                // the model is built from the augmented specs.
                let dirty = generate_dirty(
                    specs,
                    DirtyConfig {
                        size: 2_000,
                        seed: mix(self.seed, "feed"),
                        ..Default::default()
                    },
                );
                let titles = dirty.records.into_iter().map(|(value, _)| value);
                let feed = table(
                    vec![("feed_id", DataType::Int64), ("title", DataType::Utf8)],
                    vec![
                        Column::from_i64((0..2_000).collect()),
                        Column::from_strings(titles),
                    ],
                );
                let vocabulary = cx_datagen::vocab::all_words(&dirty.augmented_specs);
                Dataset {
                    tables: vec![("feed", feed), ("labels", self.labels(20_000, &vocabulary))],
                    model: Some(self.model(&dirty.augmented_specs)),
                }
            }
            Kind::Relational => {
                let mut rng = SplitMix64::new(mix(self.seed, "orders"));
                let n = 150_000;
                let product: Vec<i64> = (0..n).map(|_| rng.next_range(50_000) as i64).collect();
                let quantity: Vec<i64> = (0..n).map(|_| 1 + rng.next_range(9) as i64).collect();
                let amount: Vec<f64> = (0..n)
                    .map(|_| rng.next_range(50_000) as f64 / 100.0)
                    .collect();
                let orders = table(
                    vec![
                        ("order_id", DataType::Int64),
                        ("product_ref", DataType::Int64),
                        ("quantity", DataType::Int64),
                        ("amount", DataType::Float64),
                    ],
                    vec![
                        Column::from_i64((0..n as i64).collect()),
                        Column::from_i64(product),
                        Column::from_i64(quantity),
                        Column::from_f64(amount),
                    ],
                );
                // No model: the embed, vector and kernel layers must read zero.
                Dataset {
                    tables: vec![("orders", orders), ("products", self.products(50_000))],
                    model: None,
                }
            }
            Kind::Mixed => Dataset {
                tables: vec![
                    ("products", self.products(1_000)),
                    ("labels", self.labels(250, &self.words)),
                ],
                model: Some(self.model(specs)),
            },
        }
    }

    /// Statements run once, untimed by the driver, at the end of set-up:
    /// they embed every distinct value and plan the common shapes.
    pub fn cold_statements(&self) -> Vec<String> {
        match self.workload.kind {
            // `price > 0` keeps every row, so every distinct name is embedded.
            Kind::SemFilter => vec![semfilter_sql(0.0, &self.words[0])],
            Kind::SemJoin => vec![semjoin_sql(0, 0)],
            Kind::Relational => vec![relational_sql(0.0)],
            Kind::Mixed => (0..256)
                .map(|i| self.statement(usize::MAX, i).sql)
                .collect(),
        }
    }

    /// Statement `index` of `client`'s stream.
    pub fn statement(&self, client: usize, index: u64) -> Statement {
        // Closed-loop literals walk a seeded sequence without repeats, so a
        // statement is shape-warm but never a result-memo replay. Each
        // client walks its own stretch of the sequence.
        let n = walk_start(self.seed) + ((client as u64) << 40) + index;
        match self.workload.kind {
            Kind::SemFilter => {
                // 4200 probes × 1000 prices before a pair comes round again.
                let words = self.words.len() as u64;
                let probe = &self.words[(n.wrapping_mul(1009) % words) as usize];
                let price = 5.0 + ((n / words + n) % 1_000) as f64 / 100.0;
                Statement {
                    sql: semfilter_sql(price, probe),
                    class: "semfilter",
                }
            }
            // 40 × 400 range starts; they trim at most 2 % off either side.
            Kind::SemJoin => Statement {
                sql: semjoin_sql(n % 40, n / 40 % 400),
                class: "semjoin",
            },
            // 100 000 thresholds between 5 and 15, finer than the cent grid
            // of the prices they cut.
            Kind::Relational => Statement {
                sql: relational_sql(5.0 + (n % 100_000) as f64 / 10_000.0),
                class: "joinagg",
            },
            Kind::Mixed => {
                let stream = mix(self.seed, "stream") ^ (client as u64) << 48;
                self.mixed_statement(&mut SplitMix64::new(
                    stream ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ))
            }
        }
    }

    /// The `serve.mixed` traffic mix: 25 % dashboard replays, 45 % ad-hoc
    /// semantic filters over Zipf-drawn shapes, 20 % relational lookups,
    /// 10 % heavy semantic operators.
    fn mixed_statement(&self, rng: &mut SplitMix64) -> Statement {
        let word = &self.words[rng.next_range(self.words.len() as u64) as usize];
        let price = 5.0 + rng.next_range(15_000) as f64 / 100.0;
        let id = rng.next_range(1_000);
        match rng.next_range(100) {
            0..=24 => Statement {
                sql: DASHBOARD[rng.next_range(DASHBOARD.len() as u64) as usize].to_string(),
                class: "dash",
            },
            25..=69 => Statement {
                sql: adhoc_sql(self.shape_zipf.sample(rng), price, id, word),
                class: "adhoc",
            },
            70..=89 => Statement {
                sql: lookup_sql(rng.next_range(4), price, id),
                class: "lookup",
            },
            _ => Statement {
                sql: heavy_sql(rng.next_range(2), price, id),
                class: "heavy",
            },
        }
    }
}

/// A per-seed start for the no-repeat literal walks.
fn walk_start(seed: u64) -> u64 {
    SplitMix64::new(mix(seed, "walk")).next_range(1 << 32)
}

fn semfilter_sql(price: f64, probe: &str) -> String {
    format!(
        "SELECT product_id, name, price FROM products \
         WHERE price > {price:?} AND name SEMANTIC LIKE '{probe}' USING {MODEL} (0.8) \
         ORDER BY price DESC, product_id LIMIT 10"
    )
}

fn semjoin_sql(feed_from: u64, label_from: u64) -> String {
    format!(
        "SELECT feed_id, title, label_id, label, similarity FROM feed \
         SEMANTIC JOIN labels USING {MODEL} ON SIM(title, label) >= 0.9 \
         WHERE feed_id >= {feed_from} AND label_id >= {label_from} \
         ORDER BY similarity DESC, feed_id, label_id LIMIT 50"
    )
}

fn relational_sql(price: f64) -> String {
    format!(
        "SELECT category, COUNT(*) AS orders, SUM(amount) AS revenue, SUM(quantity) AS units \
         FROM orders INNER JOIN products ON product_ref = product_id \
         WHERE price > {price:?} GROUP BY category ORDER BY category"
    )
}

/// Eight verbatim dashboard statements: after the first run each is a
/// result-memo replay.
const DASHBOARD: [&str; 8] = [
    "SELECT category, COUNT(*) AS n, AVG(price) AS mean FROM products GROUP BY category ORDER BY category",
    "SELECT product_id, name, price FROM products ORDER BY price DESC, product_id LIMIT 10",
    "SELECT COUNT(*) AS n, MIN(price) AS lo, MAX(price) AS hi FROM products",
    "SELECT category, SUM(price) AS total FROM products WHERE price > 100.0 GROUP BY category ORDER BY total DESC, category LIMIT 5",
    "SELECT COUNT(*) AS n FROM labels",
    "SELECT product_id, name FROM products WHERE price < 10.0 ORDER BY product_id LIMIT 20",
    "SELECT category, MAX(price) AS hi FROM products GROUP BY category ORDER BY hi DESC, category LIMIT 3",
    "SELECT label_id, label FROM labels ORDER BY label_id DESC LIMIT 10",
];

/// Distinct ad-hoc plan shapes: 4 projections × 4 comparisons × 4
/// thresholds × 2 extra predicates × 2 orders. Twice the default
/// 128-entry plan cache, so the Zipf tail keeps evicting and re-planning.
const ADHOC_SHAPES: usize = 256;

fn adhoc_sql(shape: usize, price: f64, id: u64, probe: &str) -> String {
    let projection = [
        "product_id, name, price",
        "name, price",
        "product_id, name",
        "product_id, name, price, category",
    ][shape % 4];
    let comparison = [">", ">=", "<", "<="][shape / 4 % 4];
    let threshold = ["0.75", "0.8", "0.85", "0.9"][shape / 16 % 4];
    let extra = if (shape / 64).is_multiple_of(2) {
        String::new()
    } else {
        format!(" AND product_id >= {id}")
    };
    let order = ["product_id", "product_id DESC"][shape / 128 % 2];
    format!(
        "SELECT {projection} FROM products WHERE price {comparison} {price:?}{extra} \
         AND name SEMANTIC LIKE '{probe}' USING {MODEL} ({threshold}) ORDER BY {order} LIMIT 10"
    )
}

fn lookup_sql(shape: u64, price: f64, id: u64) -> String {
    match shape {
        0 => format!("SELECT product_id, name, price FROM products WHERE product_id = {id}"),
        1 => format!(
            "SELECT product_id, price FROM products WHERE price > {price:?} AND price < {:?} \
             ORDER BY price, product_id LIMIT 20",
            price + 2.0
        ),
        2 => format!("SELECT label_id, label FROM labels WHERE label_id = {}", id % 250),
        _ => format!(
            "SELECT product_id, category FROM products WHERE product_id >= {id} AND product_id < {} \
             ORDER BY product_id",
            id + 25
        ),
    }
}

fn heavy_sql(shape: u64, price: f64, id: u64) -> String {
    match shape {
        0 => format!(
            "SELECT name, label, similarity FROM products SEMANTIC JOIN labels USING {MODEL} \
             ON SIM(name, label) >= 0.85 WHERE product_id >= {} AND product_id < {} \
             ORDER BY similarity DESC, name, label LIMIT 20",
            id % 800,
            id % 800 + 200
        ),
        _ => format!(
            "SELECT name, cluster_id, COUNT(*) AS n FROM products \
             WHERE price > {price:?} AND product_id < {} GROUP BY SEMANTIC name USING {MODEL} (0.7)",
            200 + id % 200
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_between_clients_and_seeds() {
        for w in WORKLOADS {
            let (a, b, other) = (
                Generator::new(w, 7),
                Generator::new(w, 7),
                Generator::new(w, 8),
            );
            let text = |g: &Generator, c: usize| -> Vec<String> {
                (0..64).map(|i| g.statement(c, i).sql).collect()
            };
            assert_eq!(text(&a, 0), text(&b, 0), "{}", w.name);
            assert_ne!(text(&a, 0), text(&a, 1), "{}", w.name);
            assert_ne!(text(&a, 0), text(&other, 0), "{}", w.name);
        }
    }

    #[test]
    fn closed_loop_streams_never_repeat_a_statement() {
        for w in &WORKLOADS[..3] {
            let g = Generator::new(*w, 3);
            let mut seen = std::collections::HashSet::new();
            for i in 0..800 {
                assert!(
                    seen.insert(g.statement(0, i).sql),
                    "{} repeats at {i}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn mixed_traffic_holds_its_shares() {
        let g = Generator::new(WORKLOADS[3], 11);
        let mut counts = std::collections::HashMap::new();
        for i in 0..20_000 {
            *counts.entry(g.statement(0, i).class).or_insert(0usize) += 1;
        }
        for (class, share) in [
            ("dash", 0.25),
            ("adhoc", 0.45),
            ("lookup", 0.20),
            ("heavy", 0.10),
        ] {
            let got = counts[class] as f64 / 20_000.0;
            assert!((got - share).abs() < 0.02, "{class}: {got}");
        }
    }

    #[test]
    fn adhoc_shapes_are_all_distinct_text_templates() {
        let shapes: std::collections::HashSet<String> = (0..ADHOC_SHAPES)
            .map(|s| adhoc_sql(s, 1.0, 1, "w"))
            .collect();
        assert_eq!(shapes.len(), ADHOC_SHAPES);
    }
}
