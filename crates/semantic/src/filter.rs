//! Semantic Select: context-based filtering.
//!
//! `word = "Clothes" using model "M" with cosine threshold >= 0.9`
//! (the paper's own syntax sketch, Section IV).
//!
//! The filter is the one-probe case of the semantic join's panel sweep
//! ([`crate::sweep`]): its target is the only probe row, its threshold the
//! floor, and a row passes iff its value is among the sweep's hits. Scores
//! are the join's normalized dot, bit for bit.

use crate::sweep::{sweep, Distinct};
use cx_embed::EmbeddingCache;
use cx_exec::shared::{ProbeSource, ScanSignature, SharedScanState};
use cx_exec::{ChunkStream, PhysicalOperator};
use cx_storage::{Bitmap, DataType, Error, Result, Schema};
use cx_vector::QuantTier;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Filters rows whose `column` value embeds within `threshold` cosine
/// similarity of the target string's embedding.
pub struct SemanticFilterExec {
    input: Arc<dyn PhysicalOperator>,
    column_index: usize,
    target: String,
    threshold: f32,
    cache: Arc<EmbeddingCache>,
    /// Logical fingerprint of the input subtree, when the planner knows
    /// it — the operator's ticket into multi-query scan sharing.
    scan_fingerprint: Option<u64>,
    /// One-shot injected slice of a shared sweep: this filter's complete
    /// match list at its threshold; consumed by the next `execute()`.
    shared: Mutex<Option<SharedScanState>>,
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
            scan_fingerprint: None,
            shared: Mutex::new(None),
        })
    }

    /// Tags this filter with the logical fingerprint of its input
    /// subtree, making its sweep shareable (see [`cx_exec::shared`]).
    /// The planner calls this; hand-built operators may skip it and stay
    /// solo.
    pub fn with_scan_fingerprint(mut self, fingerprint: u64) -> Self {
        self.scan_fingerprint = Some(fingerprint);
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

    fn scan_signature(&self) -> Option<ScanSignature> {
        Some(ScanSignature {
            candidate_fingerprint: self.scan_fingerprint?,
            candidate_child: 0,
            candidate_column: self.column_index,
            model: self.cache.model().name().to_string(),
            // One probe can never amortize quantizing a panel: always f32.
            quant: QuantTier::F32.discriminant(),
            probe: ProbeSource::Literal(self.target.clone()),
            threshold: self.threshold,
        })
    }

    fn inject_shared_scan(&self, state: SharedScanState) -> bool {
        *self.shared.lock() = Some(state);
        true
    }

    fn execute(&self) -> Result<ChunkStream> {
        let target = self.target.clone();
        // An injected slice is the complete match list (see
        // `cx_exec::shared`): a value it does not name does not match.
        let injected: Option<HashSet<String>> = self
            .shared
            .lock()
            .take()
            .map(|state| state.matches.into_iter().map(|(_, value, _)| value).collect());
        let stream = self.input.execute()?;
        let cache = self.cache.clone();
        let column_index = self.column_index;
        let threshold = self.threshold;
        // Lifecycle context, captured once on the installing thread; each
        // chunk is an embed-batch + panel sweep, so checking here bounds a
        // dead query's overshoot to one chunk of semantic work.
        let ctx = cx_storage::QueryContext::current();
        Ok(Box::new(stream.map(move |chunk| {
            ctx.check()?;
            let chunk = chunk?;
            let distinct = Distinct::of_column(chunk.column(column_index)?)?;

            // Matches per distinct value, out of one function either way: a
            // shared-sweep slice holds the hits the same `sweep` call found
            // for this target among the group's stacked probes.
            let matched: Vec<bool> = match &injected {
                Some(matches) => distinct.values.iter().map(|v| matches.contains(*v)).collect(),
                None => {
                    let probe = [target.as_str()];
                    let hits =
                        sweep(QuantTier::F32, &cache, &distinct.values, &probe, threshold, 1, &ctx)?;
                    let mut matched = vec![false; distinct.values.len()];
                    for (_, id, _) in hits {
                        matched[id as usize] = true;
                    }
                    matched
                }
            };

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
                values: vec!["boots".into(), String::new()],
                validity: Some(Bitmap::from_bools([true, false])),
            }],
        )
        .unwrap();
        let scan = Arc::new(TableScanExec::new(Arc::new(table)));
        let filter = SemanticFilterExec::new(scan, "name", "clothes", 0.5, model_cache()).unwrap();
        let out = collect_table(&filter).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn scan_signature_requires_fingerprint() {
        let plain =
            SemanticFilterExec::new(items_scan(), "name", "clothes", 0.85, model_cache()).unwrap();
        assert!(plain.scan_signature().is_none());
        let tagged = SemanticFilterExec::new(items_scan(), "name", "clothes", 0.85, model_cache())
            .unwrap()
            .with_scan_fingerprint(0xabc);
        let sig = tagged.scan_signature().unwrap();
        assert_eq!(sig.candidate_child, 0);
        assert_eq!(sig.candidate_fingerprint, 0xabc);
        assert_eq!(sig.candidate_column, 1);
        assert_eq!(sig.model, "m");
        assert_eq!(sig.quant, 0);
        assert_eq!(sig.threshold, 0.85);
        assert_eq!(sig.probe, cx_exec::ProbeSource::Literal("clothes".into()));
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
        out.column_by_name("name").unwrap().utf8_values().unwrap().to_vec()
    }

    #[test]
    fn injected_scores_match_solo_scan_and_are_one_shot() {
        let cache = model_cache();
        let solo = {
            let f = SemanticFilterExec::new(items_scan(), "name", "clothes", 0.85, cache.clone())
                .unwrap();
            collect_table(&f).unwrap()
        };
        // The complete match list at the threshold, scored with the
        // reference arithmetic.
        let matches: Vec<(String, String, f32)> = ["boots", "dog", "parka", "cat", "coat"]
            .iter()
            .map(|v| ("clothes".to_string(), v.to_string(), reference_score(&cache, "clothes", v)))
            .filter(|&(.., s)| s >= 0.85)
            .collect();
        assert_eq!(matches.len(), 3);
        let filter = SemanticFilterExec::new(items_scan(), "name", "clothes", 0.85, cache.clone())
            .unwrap()
            .with_scan_fingerprint(1);
        assert!(filter.inject_shared_scan(SharedScanState { matches: matches.clone() }));
        let injected = collect_table(&filter).unwrap();
        assert_eq!(injected.num_rows(), solo.num_rows());
        for r in 0..solo.num_rows() {
            assert_eq!(injected.row(r).unwrap(), solo.row(r).unwrap());
        }
        // The state was consumed: the next execution scans solo again.
        let again = collect_table(&filter).unwrap();
        assert_eq!(again.num_rows(), solo.num_rows());
        // The slice is the complete match list: a value it lacks does not
        // match, even though the solo sweep would keep it.
        let without_parka = matches.into_iter().filter(|(_, v, _)| v != "parka").collect();
        assert!(filter.inject_shared_scan(SharedScanState { matches: without_parka }));
        assert_eq!(names(&filter), ["boots", "coat"]);
        assert_eq!(names(&filter), ["boots", "parka", "coat"]);
    }

    #[test]
    fn solo_scores_are_the_normalized_dot_at_the_threshold() {
        let cache = model_cache();
        // "?!" has no n-gram token: it embeds to the zero vector, which
        // scores exactly 0.0 against any target.
        assert!(cache.get("?!").iter().all(|&x| x == 0.0));
        assert_eq!(reference_score(&cache, "clothes", "?!").to_bits(), 0.0f32.to_bits());
        let table = Table::from_columns(
            Schema::new(vec![Field::new("name", DataType::Utf8)]),
            vec![Column::from_strings(["boots", "?!", "parka", "dog", "coat"])],
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
            assert!(names(&filter_at(theta)).contains(&value.to_string()), "{value} at {theta}");
            let above = f32::from_bits(theta.to_bits() + 1);
            if above <= 1.0 {
                assert!(!names(&filter_at(above)).contains(&value.to_string()), "{value}");
            }
        }
    }

    #[test]
    fn cache_reused_across_chunks() {
        let table = Table::from_rows(
            Schema::new(vec![Field::new("name", DataType::Utf8)]),
            (0..100)
                .map(|i| vec![cx_storage::Scalar::Utf8(if i % 2 == 0 { "boots" } else { "dog" }.into())])
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
