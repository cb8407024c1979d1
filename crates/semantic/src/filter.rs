//! Semantic Select: context-based filtering.
//!
//! `word = "Clothes" using model "M" with cosine threshold >= 0.9`
//! (the paper's own syntax sketch, Section IV).
//!
//! The filter is the one-probe case of the semantic join's panel sweep
//! ([`crate::sweep`]): its target is the only probe row, its threshold the
//! floor, and a row passes iff its value is among the sweep's hits. Scores
//! are the join's normalized dot, bit for bit.
//!
//! A filter told its column's base-table column
//! ([`SemanticFilterExec::with_resident_panel`]) scores that column's
//! resident panel ([`crate::panel`]) once per statement and looks each
//! row's value up in it. Any other input (a join's output, a UNION) is
//! deduplicated and swept chunk by chunk.

use crate::panel::{resident, BaseColumn, ResidentPanel};
use crate::sweep::{sweep, sweep_panel, Distinct};
use cx_embed::EmbeddingCache;
use cx_exec::{ChunkStream, PhysicalOperator};
use cx_storage::{Bitmap, DataType, Error, Result, Schema};
use std::sync::Arc;

/// Filters rows whose `column` value embeds within `threshold` cosine
/// similarity of the target string's embedding.
pub struct SemanticFilterExec {
    input: Arc<dyn PhysicalOperator>,
    column_index: usize,
    target: String,
    threshold: f32,
    cache: Arc<EmbeddingCache>,
    /// The base-table column the filtered column reads, when it traces to
    /// one ([`SemanticFilterExec::with_resident_panel`]).
    resident: Option<BaseColumn>,
}

impl SemanticFilterExec {
    /// Creates the filter. `column` must be a UTF8 column of the input.
    pub fn new(
        input: Arc<dyn PhysicalOperator>,
        column: &str,
        target: impl Into<String>,
        threshold: f32,
        cache: Arc<EmbeddingCache>,
    ) -> Result<Self> {
        let schema = input.schema();
        let column_index = schema.index_of(column)?;
        let field = schema.field_at(column_index)?;
        if field.data_type != DataType::Utf8 {
            return Err(Error::TypeMismatch {
                expected: "UTF8 column for semantic filter".into(),
                actual: field.data_type.to_string(),
            });
        }
        if !(0.0..=1.0).contains(&threshold) {
            return Err(Error::InvalidArgument(format!(
                "semantic threshold must be in [0,1], got {threshold}"
            )));
        }
        Ok(SemanticFilterExec {
            input,
            column_index,
            target: target.into(),
            threshold,
            cache,
            resident: None,
        })
    }

    /// Names the base-table column the filtered column reads. The filter
    /// then scores that column's resident panel ([`crate::panel`]) once
    /// per statement instead of embedding each chunk's distinct values.
    pub fn with_resident_panel(mut self, source: BaseColumn) -> Self {
        self.resident = Some(source);
        self
    }

    /// The embedding cache backing this operator (for hit/miss inspection).
    pub fn cache(&self) -> &Arc<EmbeddingCache> {
        &self.cache
    }
}

impl PhysicalOperator for SemanticFilterExec {
    fn name(&self) -> String {
        format!(
            "SemanticFilter [~ '{}', cos>={}, model={}]",
            self.target,
            self.threshold,
            self.cache.model().name()
        )
    }

    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.input.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let target = self.target.clone();
        let stream = self.input.execute()?;
        let cache = self.cache.clone();
        let column_index = self.column_index;
        let threshold = self.threshold;
        let source = self.resident.clone();
        // The resident panel and its per-row matches, from the first chunk.
        let mut scored: Option<(Arc<ResidentPanel>, Bitmap)> = None;
        // Lifecycle context, captured once on the installing thread;
        // checking it per chunk bounds a dead query's overshoot to one
        // chunk of semantic work.
        let ctx = cx_storage::QueryContext::current();
        Ok(Box::new(stream.map(move |chunk| {
            ctx.check()?;
            let chunk = chunk?;
            let col = chunk.column(column_index)?;
            if let Some(source) = &source {
                let (panel, matched) = match &mut scored {
                    Some(scored) => scored,
                    None => {
                        let panel = resident(source, &cache, false)?;
                        let matched = sweep_panel(&cache, &panel, &target, threshold, &ctx)?;
                        scored.insert((panel, matched))
                    }
                };
                return chunk.filter(&panel.passing(col, matched)?);
            }
            let distinct = Distinct::of_column(col)?;

            // Matches per distinct value: the one-probe panel sweep.
            let probe = [target.as_str()];
            let hits = sweep(&cache, &distinct.values, &probe, threshold, 1, &ctx)?;
            let mut matched = vec![false; distinct.values.len()];
            for (_, id, _) in hits {
                matched[id as usize] = true;
            }

            // NULL never matches.
            let passes = |id: &Option<u32>| id.is_some_and(|id| matched[id as usize]);
            chunk.filter(&Bitmap::from_bools(distinct.row_ids.iter().map(passes)))
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::{ClusterGeometry, ClusterSpec, ClusteredTextModel, SemanticSpace};
    use cx_exec::{collect_table, TableScanExec};
    use cx_storage::{Column, Field, Table};

    fn model_cache() -> Arc<EmbeddingCache> {
        let space = SemanticSpace::build(
            &[
                ClusterSpec::new("clothes", &["boots", "parka", "windbreaker", "coat"]),
                ClusterSpec::new("animal", &["dog", "cat"]),
            ],
            64,
            42,
            ClusterGeometry::default(),
        );
        let model = ClusteredTextModel::new("m", Arc::new(space), 7);
        Arc::new(EmbeddingCache::new(Arc::new(model)))
    }

    fn items_scan() -> Arc<dyn PhysicalOperator> {
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Column::from_i64(vec![1, 2, 3, 4, 5]),
                Column::from_strings(["boots", "dog", "parka", "cat", "coat"]),
            ],
        )
        .unwrap();
        Arc::new(TableScanExec::new(Arc::new(table)))
    }

    #[test]
    fn selects_semantic_matches_only() {
        let filter =
            SemanticFilterExec::new(items_scan(), "name", "clothes", 0.85, model_cache()).unwrap();
        let out = collect_table(&filter).unwrap();
        let names = out.column_by_name("name").unwrap();
        let got: Vec<String> = names.utf8_values().unwrap().to_vec();
        assert_eq!(got, vec!["boots", "parka", "coat"]);
    }

    #[test]
    fn threshold_one_keeps_exact_target_only() {
        let filter =
            SemanticFilterExec::new(items_scan(), "name", "boots", 0.999, model_cache()).unwrap();
        let out = collect_table(&filter).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn validates_column_type_and_threshold() {
        assert!(SemanticFilterExec::new(items_scan(), "id", "x", 0.9, model_cache()).is_err());
        assert!(SemanticFilterExec::new(items_scan(), "nope", "x", 0.9, model_cache()).is_err());
        assert!(SemanticFilterExec::new(items_scan(), "name", "x", 1.5, model_cache()).is_err());
    }

    #[test]
    fn null_values_never_match() {
        let table = Table::from_columns(
            Schema::new(vec![Field::new("name", DataType::Utf8)]),
            vec![Column::Utf8 {
                values: vec!["boots".into(), String::new()].into(),
                validity: Some(Bitmap::from_bools([true, false]).into()),
            }],
        )
        .unwrap();
        let scan = Arc::new(TableScanExec::new(Arc::new(table)));
        let filter = SemanticFilterExec::new(scan, "name", "clothes", 0.5, model_cache()).unwrap();
        let out = collect_table(&filter).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    /// The filter's arithmetic, pairwise: the bare dot of the target's and
    /// the value's embeddings, each scaled to unit norm (zero vectors stay
    /// zero and score 0.0).
    fn reference_score(cache: &EmbeddingCache, target: &str, value: &str) -> f32 {
        let unit = |text: &str| -> Vec<f32> {
            let mut v = cache.get(text).to_vec();
            let n = cx_vector::kernels::norm(&v);
            if n > 0.0 {
                for x in &mut v {
                    *x /= n;
                }
            }
            v
        };
        cx_vector::kernels::dot_unrolled(&unit(target), &unit(value))
    }

    fn names(filter: &SemanticFilterExec) -> Vec<String> {
        let out = collect_table(filter).unwrap();
        out.column_by_name("name")
            .unwrap()
            .utf8_values()
            .unwrap()
            .to_vec()
    }

    #[test]
    fn solo_scores_are_the_normalized_dot_at_the_threshold() {
        let cache = model_cache();
        // "?!" has no n-gram token: it embeds to the zero vector, which
        // scores exactly 0.0 against any target.
        assert!(cache.get("?!").iter().all(|&x| x == 0.0));
        assert_eq!(
            reference_score(&cache, "clothes", "?!").to_bits(),
            0.0f32.to_bits()
        );
        let table = Table::from_columns(
            Schema::new(vec![Field::new("name", DataType::Utf8)]),
            vec![Column::from_strings([
                "boots", "?!", "parka", "dog", "coat",
            ])],
        )
        .unwrap();
        let filter_at = |threshold: f32| {
            let scan = Arc::new(TableScanExec::new(Arc::new(table.clone())));
            SemanticFilterExec::new(scan, "name", "clothes", threshold, model_cache()).unwrap()
        };
        // θ = 0 keeps the zero vector (0.0 >= 0.0); any positive θ drops it.
        assert!(names(&filter_at(0.0)).contains(&"?!".to_string()));
        assert!(!names(&filter_at(f32::MIN_POSITIVE)).contains(&"?!".to_string()));
        // A value scoring exactly θ passes; one ulp above θ it does not.
        for value in ["boots", "parka", "dog", "coat"] {
            let theta = reference_score(&cache, "clothes", value);
            if !(0.0..=1.0).contains(&theta) {
                continue;
            }
            assert!(
                names(&filter_at(theta)).contains(&value.to_string()),
                "{value} at {theta}"
            );
            let above = f32::from_bits(theta.to_bits() + 1);
            if above <= 1.0 {
                assert!(
                    !names(&filter_at(above)).contains(&value.to_string()),
                    "{value}"
                );
            }
        }
    }

    #[test]
    fn cache_reused_across_chunks() {
        let table = Table::from_rows(
            Schema::new(vec![Field::new("name", DataType::Utf8)]),
            (0..100)
                .map(|i| {
                    vec![cx_storage::Scalar::Utf8(
                        if i % 2 == 0 { "boots" } else { "dog" }.into(),
                    )]
                })
                .collect(),
        )
        .unwrap()
        .rechunk(10)
        .unwrap();
        let scan = Arc::new(TableScanExec::new(Arc::new(table)));
        let cache = model_cache();
        let filter = SemanticFilterExec::new(scan, "name", "clothes", 0.85, cache.clone()).unwrap();
        let out = collect_table(&filter).unwrap();
        assert_eq!(out.num_rows(), 50);
        // Only 3 distinct strings embedded: target + 2 values.
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.model().stats().invocations(), 3);
    }
}
