//! Semantic Select: context-based filtering.
//!
//! `word = "Clothes" using model "M" with cosine threshold >= 0.9`
//! (the paper's own syntax sketch, Section IV).

use cx_embed::EmbeddingCache;
use cx_exec::shared::{ProbeSource, ScanKind, ScanSignature, SharedScanState};
use cx_exec::{ChunkStream, PhysicalOperator, SemanticTarget};
use cx_storage::{Bitmap, DataType, Error, Result, Scalar, Schema};
use cx_vector::block::cosine_block_threshold;
use cx_vector::kernels::{cosine_with_norms, norm};
use cx_vector::{QuantTier, QuantizedArena, VectorArena};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Filters rows whose `column` value embeds within `threshold` cosine
/// similarity of the target string's embedding. The target may be a
/// prepared-statement parameter ([`SemanticTarget::Param`]); the operator
/// then executes only after `bind_params` resolves it.
pub struct SemanticFilterExec {
    input: Arc<dyn PhysicalOperator>,
    column_index: usize,
    target: SemanticTarget,
    threshold: f32,
    /// Panel storage precision for the per-chunk distinct scan (F32 =
    /// exact).
    quant: QuantTier,
    cache: Arc<EmbeddingCache>,
    /// Logical fingerprint of the input subtree, when the planner knows
    /// it — the operator's ticket into multi-query scan sharing.
    scan_fingerprint: Option<u64>,
    /// One-shot injected slice of a shared sweep (value → score against
    /// this filter's target); consumed by the next `execute()`.
    shared: Mutex<Option<HashMap<String, f32>>>,
}

impl SemanticFilterExec {
    /// Creates the filter. `column` must be a UTF8 column of the input.
    /// The target accepts a plain string or a [`SemanticTarget`] (so
    /// prepared statements can pass a parameter slot).
    pub fn new(
        input: Arc<dyn PhysicalOperator>,
        column: &str,
        target: impl Into<SemanticTarget>,
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
            quant: QuantTier::F32,
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

    /// Sets the panel storage tier for the distinct-value scan. `F16`/
    /// `Int8` score quantized panels ([`QuantizedArena`]) instead of f32
    /// rows, trading a bounded score error for bytes-per-row.
    pub fn with_quant_tier(mut self, tier: QuantTier) -> Self {
        self.quant = tier;
        self
    }

    /// The configured panel storage tier.
    pub fn quant_tier(&self) -> QuantTier {
        self.quant
    }

    /// The embedding cache backing this operator (for hit/miss inspection).
    pub fn cache(&self) -> &Arc<EmbeddingCache> {
        &self.cache
    }
}

impl PhysicalOperator for SemanticFilterExec {
    fn name(&self) -> String {
        let quant = match self.quant {
            QuantTier::F32 => String::new(),
            tier => format!(", quant={}", tier.label()),
        };
        format!(
            "SemanticFilter [~ {}, cos>={}{}, model={}]",
            self.target,
            self.threshold,
            quant,
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
        // An unbound parameterized probe has no vectors to stack into a
        // shared sweep: only bound (or fixed-text) filters are shareable.
        let target = self.target.text()?;
        Some(ScanSignature {
            kind: ScanKind::CosineFilter,
            candidate_fingerprint: self.scan_fingerprint?,
            candidate_child: 0,
            candidate_column: self.column_index,
            model: self.cache.model().name().to_string(),
            quant: self.quant.discriminant(),
            probe: ProbeSource::Literal(target.to_string()),
            threshold: self.threshold,
        })
    }

    fn bind_params(&self, params: &[Scalar]) -> Result<Option<Arc<dyn PhysicalOperator>>> {
        let input = self.input.bind_params(params)?;
        if input.is_none() && self.target.text().is_some() {
            return Ok(None);
        }
        // The scan fingerprint is kept even when the input subtree was
        // rebound (two bindings of one template fingerprint alike, so
        // their sweeps may merge over one binding's candidate panel).
        // That is sound *for the filter*: injected scores are keyed by
        // value string and computed with this member's own probe, so a
        // value from the other binding's panel scores identically to the
        // solo scan, and values missing from the shared panel re-score
        // solo per value (see `execute`). The semantic join cannot make
        // this argument and drops its tags instead.
        Ok(Some(Arc::new(SemanticFilterExec {
            input: input.unwrap_or_else(|| self.input.clone()),
            column_index: self.column_index,
            target: SemanticTarget::Text(self.target.resolve(params)?),
            threshold: self.threshold,
            quant: self.quant,
            cache: self.cache.clone(),
            scan_fingerprint: self.scan_fingerprint,
            shared: Mutex::new(None),
        })))
    }

    fn inject_shared_scan(&self, state: SharedScanState) -> bool {
        match state {
            SharedScanState::FilterScores(map) => {
                *self.shared.lock() = Some(map);
                true
            }
            SharedScanState::JoinMatches(_) => false,
        }
    }

    fn execute(&self) -> Result<ChunkStream> {
        let target = self.target.text().ok_or_else(|| {
            Error::InvalidArgument(format!(
                "cannot execute semantic filter with unbound probe parameter {}; bind it first",
                self.target
            ))
        })?;
        let injected = self.shared.lock().take();
        let target_vec = self.cache.get(target);
        let target_norm = norm(&target_vec);
        // Quantized tiers score unit vectors, so normalize the target once.
        let target_unit: Vec<f32> = if target_norm > 0.0 {
            target_vec.iter().map(|x| x / target_norm).collect()
        } else {
            target_vec.to_vec()
        };
        let stream = self.input.execute()?;
        let cache = self.cache.clone();
        let column_index = self.column_index;
        let threshold = self.threshold;
        let quant = self.quant;
        // Lifecycle context, captured once on the installing thread; each
        // chunk is an embed-batch + panel sweep, so checking here bounds a
        // dead query's overshoot to one chunk of semantic work.
        let ctx = cx_storage::QueryContext::current();
        Ok(Box::new(stream.map(move |chunk| {
            ctx.check()?;
            let chunk = chunk?;
            let col = chunk.column(column_index)?;
            let values = col.utf8_values()?;

            // Deduplicate the chunk's values, embed the distinct set into a
            // contiguous arena, then score target-vs-panel with one blocked
            // threshold scan. At F32 the scores match the pairwise
            // cosine_with_norms kernel bit-for-bit; at F16/Int8 the panel
            // is quantized and scores carry the tier's bounded error.
            let mut value_id: HashMap<&str, usize> = HashMap::new();
            let mut distinct: Vec<&str> = Vec::new();
            for (i, v) in values.iter().enumerate() {
                if col.is_valid(i) {
                    value_id.entry(v.as_str()).or_insert_with(|| {
                        distinct.push(v.as_str());
                        distinct.len() - 1
                    });
                }
            }
            let mut passes = vec![false; distinct.len()];
            if let Some(map) = &injected {
                // Shared-sweep slice: scores were computed by one stacked
                // panel sweep with exactly this operator's arithmetic, so
                // each lookup is bit-identical to the solo scan below. A
                // value missing from the map (only possible under a
                // mis-grouped injection) is re-scored solo in f32.
                for (r, v) in distinct.iter().enumerate() {
                    let score = match map.get(*v) {
                        Some(&s) => s,
                        None => {
                            let vec = cache.get(v);
                            cosine_with_norms(&target_vec, &vec, target_norm, norm(&vec))
                        }
                    };
                    if score >= threshold {
                        passes[r] = true;
                    }
                }
                let mask = Bitmap::from_bools(values.iter().enumerate().map(|(i, v)| {
                    col.is_valid(i) && passes[value_id[v.as_str()]]
                }));
                return chunk.filter(&mask);
            }
            let _sweep = cx_obs::span_with("panel_sweep", || {
                format!(
                    "kind=cosine-filter tier={} panel_rows={} simd={}",
                    quant.label(),
                    distinct.len(),
                    cx_vector::simd::KernelDispatch::active().report()
                )
            });
            cx_obs::add_pairs(distinct.len() as u64);
            cx_obs::add_tiles(1);
            let arena = VectorArena::from_texts(&cache, &distinct);
            match quant {
                QuantTier::F32 => {
                    let view = arena.as_block();
                    cosine_block_threshold(
                        &target_vec,
                        target_norm,
                        view.data,
                        view.stride,
                        view.norms,
                        threshold,
                        |r, _| passes[r] = true,
                    );
                }
                tier if target_norm == 0.0 => {
                    // Zero target: cosine scores every row 0.0, whatever
                    // the tier.
                    let _ = tier;
                    if 0.0 >= threshold {
                        passes.fill(true);
                    }
                }
                tier => {
                    let panel = QuantizedArena::from_arena(&arena.normalized(), tier)
                        .map_err(|e| Error::InvalidArgument(e.to_string()))?;
                    for (r, &score) in panel.scores(&target_unit).iter().enumerate() {
                        if score >= threshold {
                            passes[r] = true;
                        }
                    }
                }
            }

            let mask = Bitmap::from_bools(values.iter().enumerate().map(|(i, v)| {
                // NULL never matches.
                col.is_valid(i) && passes[value_id[v.as_str()]]
            }));
            chunk.filter(&mask)
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
    fn quantized_tiers_agree_on_well_separated_clusters() {
        let exact = {
            let f = SemanticFilterExec::new(items_scan(), "name", "clothes", 0.85, model_cache())
                .unwrap();
            collect_table(&f).unwrap()
        };
        for tier in [QuantTier::F16, QuantTier::Int8] {
            let filter =
                SemanticFilterExec::new(items_scan(), "name", "clothes", 0.85, model_cache())
                    .unwrap()
                    .with_quant_tier(tier);
            assert_eq!(filter.quant_tier(), tier);
            assert!(filter.name().contains(tier.label()), "{}", filter.name());
            let out = collect_table(&filter).unwrap();
            let names = |t: &Table| -> Vec<String> {
                t.column_by_name("name").unwrap().utf8_values().unwrap().to_vec()
            };
            assert_eq!(names(&out), names(&exact), "{tier:?}");
        }
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
        assert_eq!(sig.kind, cx_exec::ScanKind::CosineFilter);
        assert_eq!(sig.candidate_fingerprint, 0xabc);
        assert_eq!(sig.candidate_column, 1);
        assert_eq!(sig.model, "m");
        assert_eq!(sig.quant, 0);
        assert_eq!(sig.threshold, 0.85);
        assert_eq!(sig.probe, cx_exec::ProbeSource::Literal("clothes".into()));
    }

    #[test]
    fn injected_scores_match_solo_scan_and_are_one_shot() {
        let cache = model_cache();
        let solo = {
            let f = SemanticFilterExec::new(items_scan(), "name", "clothes", 0.85, cache.clone())
                .unwrap();
            collect_table(&f).unwrap()
        };
        // Scores computed with the solo arithmetic, keyed by value.
        let target = cache.get("clothes");
        let tn = norm(&target);
        let map: HashMap<String, f32> = ["boots", "dog", "parka", "cat", "coat"]
            .iter()
            .map(|v| {
                let e = cache.get(v);
                (v.to_string(), cx_vector::kernels::cosine_with_norms(&target, &e, tn, norm(&e)))
            })
            .collect();
        let filter = SemanticFilterExec::new(items_scan(), "name", "clothes", 0.85, cache.clone())
            .unwrap()
            .with_scan_fingerprint(1);
        assert!(filter.inject_shared_scan(SharedScanState::FilterScores(map)));
        assert!(!filter.inject_shared_scan(SharedScanState::JoinMatches(vec![])));
        let injected = collect_table(&filter).unwrap();
        assert_eq!(injected.num_rows(), solo.num_rows());
        for r in 0..solo.num_rows() {
            assert_eq!(injected.row(r).unwrap(), solo.row(r).unwrap());
        }
        // The state was consumed: the next execution scans solo again.
        let again = collect_table(&filter).unwrap();
        assert_eq!(again.num_rows(), solo.num_rows());
        // A partial (mis-grouped) injection falls back per value and still
        // matches the solo scan.
        assert!(filter.inject_shared_scan(SharedScanState::FilterScores(HashMap::new())));
        let fallback = collect_table(&filter).unwrap();
        assert_eq!(fallback.num_rows(), solo.num_rows());
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
