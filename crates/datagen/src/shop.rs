//! The online-shopping polystore of the paper's motivating example
//! (Section II / Figure 2).
//!
//! Three sources, deliberately *not* label-aligned:
//!
//! 1. an RDBMS with products, users and transactions — product names use
//!    one synonym of their concept cluster,
//! 2. a knowledge base whose category labels use *other* synonyms
//!    ("curated and collected on a different and broader dataset"),
//! 3. a product-image store whose latent objects use yet other synonyms.
//!
//! Equality joins across the sources therefore miss most matches; only the
//! semantic join recovers them — which is the paper's point.

use crate::vocab::{synthetic_clusters, table1_clusters, ClusterTruth};
use cx_embed::rng::SplitMix64;
use cx_embed::ClusterSpec;
use cx_kb::KnowledgeBase;
use cx_storage::{Column, Field, Result, Schema, Table};
use cx_vision::{ImageStore, SyntheticImage, MICROS_PER_DAY};

/// Shop dataset parameters.
#[derive(Debug, Clone, Copy)]
pub struct ShopConfig {
    pub n_products: usize,
    pub n_users: usize,
    pub n_transactions: usize,
    pub n_images: usize,
    /// Day range of image/transaction timestamps (days since epoch).
    pub start_day: i64,
    pub days: i64,
    pub seed: u64,
}

impl Default for ShopConfig {
    fn default() -> Self {
        ShopConfig {
            n_products: 10_000,
            n_users: 2_000,
            n_transactions: 50_000,
            n_images: 8_000,
            start_day: 19_000, // ~2022
            days: 365,
            seed: 0x5B0B,
        }
    }
}

/// The generated polystore.
pub struct ShopDataset {
    /// `product_id, name, price` — names are cluster-member synonyms.
    pub products: Table,
    /// `user_id, region`.
    pub users: Table,
    /// `tx_id, user_id, product_id, ts`.
    pub transactions: Table,
    /// Labels/categories with synonym variation.
    pub kb: KnowledgeBase,
    /// Product images with latent objects.
    pub images: ImageStore,
    /// All concept clusters (Table I clothing/animal + synthetic
    /// distractors).
    pub clusters: Vec<ClusterSpec>,
    /// String-level ground truth.
    pub truth: ClusterTruth,
    config: ShopConfig,
}

impl ShopDataset {
    /// Generates the dataset.
    pub fn generate(config: ShopConfig) -> Result<ShopDataset> {
        let mut rng = SplitMix64::new(config.seed);

        // Concept clusters: the paper's Table I vocabulary plus synthetic
        // distractor categories (kitchenware, electronics, ... as random
        // concept clusters).
        let mut clusters = table1_clusters();
        clusters.extend(synthetic_clusters(12, 6, config.seed ^ 0xD15C));
        let truth = ClusterTruth::from_specs(&clusters);

        // Leaf clusters usable as product concepts (exclude the abstract
        // parents "animal"/"clothes" which have no members of their own).
        let product_clusters: Vec<&ClusterSpec> =
            clusters.iter().filter(|c| !c.members.is_empty()).collect();
        let clothing: Vec<&str> = vec!["shoes", "jacket"];

        // Products: half clothing, half distractors; the name is a random
        // member synonym of the concept cluster.
        let mut ids = Vec::with_capacity(config.n_products);
        let mut names = Vec::with_capacity(config.n_products);
        let mut prices = Vec::with_capacity(config.n_products);
        for i in 0..config.n_products {
            let cluster = if rng.next_f64() < 0.5 {
                let pick = clothing[rng.next_range(clothing.len() as u64) as usize];
                product_clusters
                    .iter()
                    .find(|c| c.name == pick)
                    .expect("clothing cluster present")
            } else {
                &product_clusters[rng.next_range(product_clusters.len() as u64) as usize]
            };
            let member = &cluster.members[rng.next_range(cluster.members.len() as u64) as usize];
            ids.push(i as i64);
            names.push(member.clone());
            prices.push(5.0 + rng.next_f64() * 195.0);
        }
        let products = Table::from_columns(
            Schema::new(vec![
                Field::new("product_id", cx_storage::DataType::Int64),
                Field::new("name", cx_storage::DataType::Utf8),
                Field::new("price", cx_storage::DataType::Float64),
            ]),
            vec![
                Column::from_i64(ids),
                Column::from_strings(names),
                Column::from_f64(prices),
            ],
        )?;

        // Users.
        let regions = ["north", "south", "east", "west"];
        let users = Table::from_columns(
            Schema::new(vec![
                Field::new("user_id", cx_storage::DataType::Int64),
                Field::new("region", cx_storage::DataType::Utf8),
            ]),
            vec![
                Column::from_i64((0..config.n_users as i64).collect()),
                Column::from_strings(
                    (0..config.n_users)
                        .map(|_| regions[rng.next_range(4) as usize].to_string())
                        .collect::<Vec<_>>(),
                ),
            ],
        )?;

        // Transactions.
        let span_micros = config.days * MICROS_PER_DAY;
        let base_ts = config.start_day * MICROS_PER_DAY;
        let mut tx_user = Vec::with_capacity(config.n_transactions);
        let mut tx_product = Vec::with_capacity(config.n_transactions);
        let mut tx_ts = Vec::with_capacity(config.n_transactions);
        for _ in 0..config.n_transactions {
            tx_user.push(rng.next_range(config.n_users.max(1) as u64) as i64);
            tx_product.push(rng.next_range(config.n_products.max(1) as u64) as i64);
            tx_ts.push(base_ts + rng.next_range(span_micros.max(1) as u64) as i64);
        }
        let transactions = Table::from_columns(
            Schema::new(vec![
                Field::new("tx_id", cx_storage::DataType::Int64),
                Field::new("user_id", cx_storage::DataType::Int64),
                Field::new("product_id", cx_storage::DataType::Int64),
                Field::new("ts", cx_storage::DataType::Timestamp),
            ]),
            vec![
                Column::from_i64((0..config.n_transactions as i64).collect()),
                Column::from_i64(tx_user),
                Column::from_i64(tx_product),
                Column::from_timestamps(tx_ts),
            ],
        )?;

        // Knowledge base: every cluster member is_a cluster; cluster
        // hierarchy mirrored; extra synonym labels attached (the KB's
        // "broader dataset" vocabulary).
        let mut kb = KnowledgeBase::new();
        for spec in &clusters {
            if let Some(parent) = &spec.parent {
                kb.assert_is_a(&spec.name, parent);
            }
            for m in &spec.members {
                kb.assert_is_a(m, &spec.name);
            }
        }

        // Images: 1–4 latent objects each, drawn as member synonyms of
        // random product clusters, plus occasional generic objects.
        let mut images = ImageStore::new();
        for i in 0..config.n_images {
            let n_objects = 1 + rng.next_range(4) as usize;
            let mut latent = Vec::with_capacity(n_objects);
            for _ in 0..n_objects {
                if rng.next_f64() < 0.2 {
                    latent.push("person".to_string());
                } else {
                    let c =
                        &product_clusters[rng.next_range(product_clusters.len() as u64) as usize];
                    latent.push(c.members[rng.next_range(c.members.len() as u64) as usize].clone());
                }
            }
            let source = ["review", "social", "website"][rng.next_range(3) as usize].to_string();
            images.add(SyntheticImage {
                id: i as i64,
                date_taken: base_ts + rng.next_range(span_micros.max(1) as u64) as i64,
                source,
                latent_objects: latent,
            });
        }

        Ok(ShopDataset {
            products,
            users,
            transactions,
            kb,
            images,
            clusters,
            truth,
            config,
        })
    }

    /// The configuration this dataset was generated with.
    pub fn config(&self) -> ShopConfig {
        self.config
    }

    /// Ground truth for the Figure 2 query, computed from latent data (no
    /// embeddings): product rows that are clothing with `price > min_price`
    /// and appear (same concept cluster) in an image taken after
    /// `after_day` containing more than `min_objects` latent objects.
    pub fn fig2_ground_truth(
        &self,
        min_price: f64,
        after_day: i64,
        min_objects: usize,
    ) -> Result<Vec<i64>> {
        let after_ts = after_day * MICROS_PER_DAY;
        // Concept clusters visible in qualifying images.
        let mut visible: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for img in self.images.images() {
            if img.date_taken > after_ts && img.latent_objects.len() > min_objects {
                for obj in &img.latent_objects {
                    if let Some(c) = self.truth.cluster_of(obj) {
                        visible.insert(c);
                    }
                }
            }
        }
        let names = self.products.column_by_name("name")?;
        let prices = self.products.column_by_name("price")?;
        let ids = self.products.column_by_name("product_id")?;
        let mut out = Vec::new();
        for i in 0..self.products.num_rows() {
            let name = &names.utf8_values()?[i];
            let price = prices.f64_values()?[i];
            if price <= min_price || !self.truth.in_tree(name, "clothes") {
                continue;
            }
            if let Some(c) = self.truth.cluster_of(name) {
                if visible.contains(c) {
                    out.push(ids.i64_values()?[i]);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ShopDataset {
        ShopDataset::generate(ShopConfig {
            n_products: 200,
            n_users: 20,
            n_transactions: 500,
            n_images: 100,
            start_day: 19_000,
            days: 100,
            seed: 7,
        })
        .unwrap()
    }

    #[test]
    fn shapes_match_config() {
        let d = small();
        assert_eq!(d.products.num_rows(), 200);
        assert_eq!(d.users.num_rows(), 20);
        assert_eq!(d.transactions.num_rows(), 500);
        assert_eq!(d.images.len(), 100);
        assert!(d.kb.num_triples() > 0);
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(
            a.products.column_by_name("name").unwrap(),
            b.products.column_by_name("name").unwrap()
        );
        assert_eq!(a.images.images(), b.images.images());
    }

    #[test]
    fn product_names_are_cluster_members() {
        let d = small();
        let names = d.products.column_by_name("name").unwrap();
        for n in names.utf8_values().unwrap() {
            assert!(
                d.truth.cluster_of(n).is_some(),
                "name {n} not in any cluster"
            );
        }
    }

    #[test]
    fn kb_taxonomy_reflects_hierarchy() {
        let d = small();
        let boots = d.kb.lookup("boots").unwrap();
        let clothes = d.kb.lookup("clothes").unwrap();
        assert!(d.kb.is_a(boots, clothes));
    }

    #[test]
    fn fig2_ground_truth_sane() {
        let d = small();
        let all = d.fig2_ground_truth(0.0, 0, 0).unwrap();
        let constrained = d.fig2_ground_truth(20.0, 19_050, 2).unwrap();
        // Constraints can only shrink the answer.
        assert!(constrained.len() <= all.len());
        assert!(!all.is_empty());
        // Every truth product is clothing.
        let names = d.products.column_by_name("name").unwrap();
        for id in &constrained {
            let name = &names.utf8_values().unwrap()[*id as usize];
            assert!(d.truth.in_tree(name, "clothes"));
        }
    }

    #[test]
    fn timestamps_within_range() {
        let d = small();
        let ts = d.transactions.column_by_name("ts").unwrap();
        let base = 19_000 * MICROS_PER_DAY;
        let end = base + 100 * MICROS_PER_DAY;
        for &t in ts.timestamp_values().unwrap() {
            assert!((base..end).contains(&t));
        }
    }
}
