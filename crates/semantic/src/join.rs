//! Semantic Join: embedding-space threshold join.
//!
//! Joins two relations on the *context* of their key columns: a pair
//! matches when the keys' embeddings are within a cosine threshold under
//! the chosen representation model (Section IV, the "small robot" operator
//! of Figure 2).
//!
//! Distinct join-key values are deduplicated before embedding
//! ([`Distinct`]); the value-level match list is then one panel sweep
//! ([`crate::sweep`]) with the left values as probes and the right values
//! as the build panel: normalize once, score each probe span against
//! cache-sized tiles of the panel with the blocked kernels. Scores are
//! bit-identical to a pairwise unrolled dot over normalized rows; only the
//! schedule differs.
//!
//! A top-k join — bounded by [`SemanticJoinExec::with_limit`] with the
//! score, descending, as its first key, and told its build
//! column by [`SemanticJoinExec::with_resident_build`] — sweeps that
//! column's resident cone-tiled panel ([`crate::panel`]) under a floor
//! that rises to the k-th best row-weighted score
//! (`sweep::sweep_top_k`), so it scores only the tiles that can
//! still reach its top k. Its output is the full sweep's, row for row and
//! bit for bit.

use crate::panel::{resident, BaseColumn};
use crate::sweep::{sweep, sweep_top_k, Distinct, Hit, RankedBuild};
use cx_embed::EmbeddingCache;
use cx_exec::{keys_cmp, top_n_by, ChunkStream, PhysicalOperator};
use cx_storage::{Chunk, Column, DataType, Error, Field, QueryContext, Result, Schema};
use std::sync::Arc;

/// The semantic join physical operator.
pub struct SemanticJoinExec {
    left: Arc<dyn PhysicalOperator>,
    right: Arc<dyn PhysicalOperator>,
    left_key: usize,
    right_key: usize,
    threshold: f32,
    cache: Arc<EmbeddingCache>,
    /// Worker threads for the probe phase (1 = serial).
    parallelism: usize,
    schema: Arc<Schema>,
    /// `ORDER BY … LIMIT k` folded into the join: `(output column,
    /// ascending)` keys and `k` ([`SemanticJoinExec::with_limit`]).
    limit: Option<(Vec<(usize, bool)>, usize)>,
    /// The base-table column the right key reads, when it traces to one
    /// ([`SemanticJoinExec::with_resident_build`]).
    resident: Option<BaseColumn>,
}

impl SemanticJoinExec {
    /// Creates the join; both key columns must be UTF8.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: Arc<dyn PhysicalOperator>,
        right: Arc<dyn PhysicalOperator>,
        left_column: &str,
        right_column: &str,
        threshold: f32,
        score_column: &str,
        cache: Arc<EmbeddingCache>,
        parallelism: usize,
    ) -> Result<Self> {
        let (ls, rs) = (left.schema(), right.schema());
        let left_key = ls.index_of(left_column)?;
        let right_key = rs.index_of(right_column)?;
        for (schema, idx, side) in [(&ls, left_key, "left"), (&rs, right_key, "right")] {
            let t = schema.field_at(idx)?.data_type;
            if t != DataType::Utf8 {
                return Err(Error::TypeMismatch {
                    expected: format!("UTF8 {side} join key"),
                    actual: t.to_string(),
                });
            }
        }
        if !(0.0..=1.0).contains(&threshold) {
            return Err(Error::InvalidArgument(format!(
                "semantic threshold must be in [0,1], got {threshold}"
            )));
        }
        let joined = ls.join(&rs);
        if joined.contains(score_column) {
            return Err(Error::InvalidArgument(format!(
                "score column '{score_column}' collides with join output"
            )));
        }
        let schema = Arc::new(joined.with_field(Field::new(score_column, DataType::Float64)));
        Ok(SemanticJoinExec {
            left,
            right,
            left_key,
            right_key,
            threshold,
            cache,
            parallelism: parallelism.max(1),
            schema,
            limit: None,
            resident: None,
        })
    }

    /// Emits only the first `k` rows of the output stably sorted by
    /// `(output column, ascending)` keys — the lowering of
    /// `Limit(Sort(SemanticJoin))` — materializing only those `k` rows.
    pub fn with_limit(mut self, keys: &[(String, bool)], k: usize) -> Result<Self> {
        let keys = keys
            .iter()
            .map(|(name, asc)| Ok((self.schema.index_of(name)?, *asc)));
        self.limit = Some((keys.collect::<Result<_>>()?, k));
        Ok(self)
    }

    /// Names the base-table column the right key reads. A top-k join (a
    /// limit whose first key is the score, descending) then
    /// scores that column's resident cone-tiled panel
    /// ([`crate::panel`]) under a rising floor
    /// (`sweep::sweep_top_k`) instead of sweeping every pair.
    pub fn with_resident_build(mut self, source: BaseColumn) -> Self {
        self.resident = Some(source);
        self
    }
}

impl PhysicalOperator for SemanticJoinExec {
    fn name(&self) -> String {
        let limit = self.limit.as_ref().map_or(String::new(), |(keys, k)| {
            format!(", sort {} keys, limit {k}", keys.len())
        });
        format!(
            "SemanticJoin [cos>={}, model={}{limit}]",
            self.threshold,
            self.cache.model().name()
        )
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.left.clone(), self.right.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let ctx = QueryContext::current();
        // Materialize both sides.
        let left_chunks = self.left.execute()?.collect::<Result<Vec<_>>>()?;
        let right_chunks = self.right.execute()?.collect::<Result<Vec<_>>>()?;
        let left = if left_chunks.is_empty() {
            Chunk::empty(self.left.schema())
        } else {
            Chunk::concat(&left_chunks)?
        };
        let right = if right_chunks.is_empty() {
            Chunk::empty(self.right.schema())
        } else {
            Chunk::concat(&right_chunks)?
        };
        ctx.charge(left.memory_bytes() + right.memory_bytes());
        ctx.check()?;

        let left_vals = Distinct::of_column(left.column(self.left_key)?)?;
        let right_vals = Distinct::of_column(right.column(self.right_key)?)?;
        let (left_rows, right_rows) = (left_vals.rows_per_value(), right_vals.rows_per_value());

        let matches = self.match_values(
            (&left_vals.values, &left_rows),
            (&right_vals.values, &right_rows),
            &ctx,
        )?;

        // Expand value matches to row pairs, in (left value, right value,
        // left row, right row) order.
        let mut span = cx_obs::span("join_epilogue");
        let mut left_idx: Vec<usize> = Vec::new();
        let mut right_idx: Vec<usize> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        for &(lv, rv, score) in &matches {
            for &lr in &left_rows[lv as usize] {
                for &rr in &right_rows[rv as usize] {
                    left_idx.push(lr as usize);
                    right_idx.push(rr as usize);
                    scores.push(score as f64);
                }
            }
        }
        let pairs = scores.len();
        let mut scores = Column::from_f64(scores);
        if let Some((keys, k)) = &self.limit {
            // Late materialization: order the pairs on cells read through
            // their row ids, and build rows for the first k only.
            let width = left.num_columns();
            let winners = {
                let cells: Vec<_> = keys
                    .iter()
                    .map(|&(key, asc)| match key.checked_sub(width) {
                        None => (&left.columns()[key], Some(&left_idx[..]), asc),
                        Some(r) if r < right.num_columns() => {
                            (&right.columns()[r], Some(&right_idx[..]), asc)
                        }
                        Some(_) => (&scores, None, asc),
                    })
                    .collect();
                top_n_by(pairs, *k, |a, b| keys_cmp(&cells, a, b))
            };
            left_idx = winners.iter().map(|&p| left_idx[p]).collect();
            right_idx = winners.iter().map(|&p| right_idx[p]).collect();
            scores = scores.take(&winners)?;
        }
        if span.is_recording() {
            span.set_detail(format!("pairs={pairs} emitted={}", left_idx.len()));
        }

        let zipped = left.take(&left_idx)?.zip(&right.take(&right_idx)?)?;
        let mut columns = zipped.columns().to_vec();
        columns.push(scores);
        let out = Chunk::new(self.schema.clone(), columns)?;
        Ok(Box::new(std::iter::once(Ok(out))))
    }
}

impl SemanticJoinExec {
    /// The k of a top-k join: a limit whose first key is the score,
    /// descending.
    fn top_k(&self) -> Option<usize> {
        let (keys, k) = self.limit.as_ref()?;
        let by_score = keys.first() == Some(&(self.schema.len() - 1, false));
        by_score.then_some(*k)
    }

    /// Value-level matching: `(left value id, right value id, score)`,
    /// ordered by ids regardless of parallelism — the one panel sweep
    /// ([`crate::sweep`]) with the left values as its probes and this
    /// join's threshold as its floor. A top-k join over a resident build
    /// column keeps only the pairs that can reach its top k
    /// ([`sweep_top_k`]); each side comes with its rows per value.
    fn match_values(
        &self,
        (left, left_rows): (&[&str], &[Vec<u32>]),
        (right, right_rows): (&[&str], &[Vec<u32>]),
        ctx: &QueryContext,
    ) -> Result<Vec<Hit>> {
        if left.is_empty() || right.is_empty() {
            return Ok(Vec::new());
        }
        let workers = if self.parallelism <= 1 || left.len() < 2 * self.parallelism {
            1
        } else {
            self.parallelism
        };
        if let (Some(k), Some(source)) = (self.top_k(), &self.resident) {
            let panel = resident(source, &self.cache, true)?;
            ctx.check()?;
            let candidates = panel.candidates(right, right_rows)?;
            let probe_weights: Vec<u64> = left_rows.iter().map(|r| r.len() as u64).collect();
            let top = RankedBuild {
                panel: &panel,
                tiles: panel.tiles.as_ref().expect("a top-k use tiles the panel"),
                candidates: &candidates,
                probe_weights: &probe_weights,
                k,
            };
            return sweep_top_k(&self.cache, top, left, self.threshold, workers, ctx);
        }
        let floor = self.threshold;
        sweep(&self.cache, right, left, floor, workers, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::{ClusterGeometry, ClusterSpec, ClusteredTextModel, SemanticSpace};
    use cx_exec::{collect_table, TableScanExec};
    use cx_storage::{Scalar, Table};

    fn cache() -> Arc<EmbeddingCache> {
        let space = SemanticSpace::build(
            &[
                ClusterSpec::new("shoes", &["boots", "sneakers", "oxfords"]),
                ClusterSpec::new("jacket", &["parka", "coat", "windbreaker"]),
                ClusterSpec::new("mug", &["cup"]),
            ],
            64,
            42,
            ClusterGeometry::default(),
        );
        Arc::new(EmbeddingCache::new(Arc::new(ClusteredTextModel::new(
            "m",
            Arc::new(space),
            7,
        ))))
    }

    fn products() -> Arc<dyn PhysicalOperator> {
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Column::from_i64(vec![1, 2, 3, 4]),
                Column::from_strings(["boots", "parka", "mug", "boots"]),
            ],
        )
        .unwrap();
        Arc::new(TableScanExec::new(Arc::new(table)))
    }

    fn catalog() -> Arc<dyn PhysicalOperator> {
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("label", DataType::Utf8),
                Field::new("kind", DataType::Utf8),
            ]),
            vec![
                Column::from_strings(["sneakers", "coat", "cup", "oxfords"]),
                Column::from_strings(["shoes", "jacket", "kitchen", "shoes"]),
            ],
        )
        .unwrap();
        Arc::new(TableScanExec::new(Arc::new(table)))
    }

    fn join_with(parallelism: usize) -> Table {
        let join = SemanticJoinExec::new(
            products(),
            catalog(),
            "name",
            "label",
            0.85,
            "sim",
            cache(),
            parallelism,
        )
        .unwrap();
        collect_table(&join).unwrap()
    }

    #[test]
    fn matches_within_clusters() {
        let out = join_with(1);
        // boots×2 rows match sneakers+oxfords (4 pairs), parka matches coat,
        // mug matches cup.
        assert_eq!(out.num_rows(), 6);
        assert_eq!(
            out.schema().names(),
            vec!["id", "name", "label", "kind", "sim"]
        );
        // Every score is above threshold.
        let sims = out.column_by_name("sim").unwrap();
        for s in sims.f64_values().unwrap() {
            assert!(*s >= 0.85);
        }
    }

    /// Asserts two join outputs are the same rows in the same order, scores
    /// equal to the bit.
    fn assert_bit_identical(a: &Table, b: &Table, what: &str) {
        assert_eq!(a.num_rows(), b.num_rows(), "{what}");
        for i in 0..a.num_rows() {
            let (x, y) = (a.row(i).unwrap(), b.row(i).unwrap());
            assert_eq!(x[..4], y[..4], "{what}: row {i} keys");
            match (&x[4], &y[4]) {
                (Scalar::Float64(p), Scalar::Float64(q)) => {
                    assert_eq!(p.to_bits(), q.to_bits(), "{what}: row {i} score")
                }
                other => panic!("unexpected score scalars: {other:?}"),
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        // Enough distinct probe values (≥ 2 × parallelism) that 4 workers
        // really fan out rather than falling back to one span.
        let names: Vec<String> = ["boots", "parka", "mug", "coat", "cup", "sneakers"]
            .iter()
            .flat_map(|w| [w.to_string(), format!("{w}s"), format!("old {w}")])
            .collect();
        let wide = || -> Arc<dyn PhysicalOperator> {
            let table = Table::from_columns(
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("name", DataType::Utf8),
                ]),
                vec![
                    Column::from_i64((0..names.len() as i64).collect()),
                    Column::from_strings(names.iter().map(String::as_str)),
                ],
            )
            .unwrap();
            Arc::new(TableScanExec::new(Arc::new(table)))
        };
        let run = |parallelism| {
            let join = SemanticJoinExec::new(
                wide(),
                catalog(),
                "name",
                "label",
                0.5,
                "sim",
                cache(),
                parallelism,
            )
            .unwrap();
            collect_table(&join).unwrap()
        };
        let serial = run(1);
        assert!(serial.num_rows() > 0, "found nothing");
        assert_bit_identical(&serial, &run(4), "parallel vs serial");
    }

    #[test]
    fn distinct_value_dedup_bounds_inference() {
        let c = cache();
        let join = SemanticJoinExec::new(
            products(),
            catalog(),
            "name",
            "label",
            0.85,
            "sim",
            c.clone(),
            1,
        )
        .unwrap();
        let window = cx_obs::ProfileSpan::start();
        collect_table(&join).unwrap();
        let profile = window.finish(0);
        // 3 distinct left + 4 distinct right = 7 embeddings, despite 4 left rows.
        assert_eq!(c.model().stats().invocations(), 7);
        // The sweep scored 3×4 distinct-value pairs.
        assert_eq!(profile.pairs_scored, 12);
    }

    #[test]
    fn top_k_over_a_resident_panel_scores_fewer_pairs() {
        use crate::panel::BaseColumn;
        // Four value clusters of 40 labels each; the probes repeat labels
        // exactly, so the floor rises to their scores at once.
        let heads = ["boots", "parka", "mug", "cup"];
        let labels: Vec<String> = (0..160).map(|i| format!("{} {i}", heads[i % 4])).collect();
        let table = Arc::new(
            Table::from_columns(
                Schema::new(vec![
                    Field::new("label", DataType::Utf8),
                    Field::new("kind", DataType::Utf8),
                ]),
                vec![
                    Column::from_strings(labels.iter().map(String::as_str)),
                    Column::from_strings(labels.iter().map(|l| &l[..3])),
                ],
            )
            .unwrap(),
        );
        let probes = Table::from_columns(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Column::from_i64(vec![1, 2]),
                Column::from_strings(["boots 8", "mug 2"]),
            ],
        )
        .unwrap();
        let c = cache();
        let join = || {
            SemanticJoinExec::new(
                Arc::new(TableScanExec::new(Arc::new(probes.clone()))),
                Arc::new(TableScanExec::new(table.clone())),
                "name",
                "label",
                0.0,
                "sim",
                c.clone(),
                1,
            )
            .unwrap()
            .with_limit(&[("sim".into(), false), ("label".into(), true)], 2)
            .unwrap()
        };
        let profiled = |join: SemanticJoinExec| {
            let window = cx_obs::ProfileSpan::start();
            let out = collect_table(&join).unwrap();
            (out, window.finish(0).pairs_scored)
        };
        let (full, all_pairs) = profiled(join());
        let source = BaseColumn {
            table: table.clone(),
            column: 0,
        };
        let (pruned, scored) = profiled(join().with_resident_build(source));
        assert_bit_identical(&full, &pruned, "pruned vs full");
        assert_eq!(all_pairs, 2 * 160);
        assert!(scored < all_pairs, "scored {scored} of {all_pairs}");
    }

    #[test]
    fn score_column_collision_rejected() {
        let bad = SemanticJoinExec::new(
            products(),
            catalog(),
            "name",
            "label",
            0.9,
            "kind",
            cache(),
            1,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn empty_side_yields_empty_output() {
        let empty = {
            let t = Table::empty(Arc::new(Schema::new(vec![
                Field::new("label", DataType::Utf8),
                Field::new("kind", DataType::Utf8),
            ])));
            Arc::new(TableScanExec::new(Arc::new(t))) as Arc<dyn PhysicalOperator>
        };
        let join =
            SemanticJoinExec::new(products(), empty, "name", "label", 0.9, "sim", cache(), 1)
                .unwrap();
        let out = collect_table(&join).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema().len(), 5);
    }

    #[test]
    fn non_utf8_keys_rejected() {
        let bad =
            SemanticJoinExec::new(products(), catalog(), "id", "label", 0.9, "sim", cache(), 1);
        assert!(bad.is_err());
    }
}
