//! Semantic Group-By: on-the-fly clustering with per-cluster aggregates.
//!
//! "Semantic GroupBy — on-the-fly clustering of the result based on a
//! model-based similarity threshold" (Section IV). The operator takes
//! its key's distinct values in first-appearance order ([`Distinct`]),
//! clusters them once ([`cluster`]: fixed leaders, best score at or above
//! θ, ties to the lowest cluster id), then folds every row into its
//! value's cluster exactly as the relational hash aggregate folds a
//! group. Every row of one value lands in one cluster.

use crate::sweep::{cluster, Distinct};
use cx_embed::EmbeddingCache;
use cx_exec::logical::AggSpec;
use cx_exec::{Aggregates, ChunkStream, PhysicalOperator};
use cx_storage::{
    Chunk, Column, ColumnBuilder, DataType, Error, Field, QueryContext, Result, Scalar, Schema,
};
use std::sync::Arc;

/// Groups rows by the semantic cluster of a string column.
///
/// Output schema: `[column (representative), cluster_id, ...aggregates]`,
/// one row per cluster in founding order; a cluster's representative is
/// its leader, the value that founded it. NULL values form their own last
/// cluster with a NULL representative.
pub struct SemanticGroupByExec {
    input: Arc<dyn PhysicalOperator>,
    column_index: usize,
    threshold: f32,
    aggs: Aggregates,
    cache: Arc<EmbeddingCache>,
    schema: Arc<Schema>,
}

impl SemanticGroupByExec {
    /// Creates the operator; `column` must be UTF8.
    pub fn new(
        input: Arc<dyn PhysicalOperator>,
        column: &str,
        threshold: f32,
        aggs: &[AggSpec],
        cache: Arc<EmbeddingCache>,
    ) -> Result<Self> {
        let in_schema = input.schema();
        let column_index = in_schema.index_of(column)?;
        if in_schema.field_at(column_index)?.data_type != DataType::Utf8 {
            return Err(Error::TypeMismatch {
                expected: "UTF8 column for semantic group-by".into(),
                actual: in_schema.field_at(column_index)?.data_type.to_string(),
            });
        }
        if !(0.0..=1.0).contains(&threshold) {
            return Err(Error::InvalidArgument(format!(
                "semantic threshold must be in [0,1], got {threshold}"
            )));
        }
        let (aggs, agg_fields) = Aggregates::resolve(aggs, &in_schema)?;
        let mut fields = vec![
            Field::new(column, DataType::Utf8),
            Field::new("cluster_id", DataType::Int64),
        ];
        fields.extend(agg_fields);
        Ok(SemanticGroupByExec {
            input,
            column_index,
            threshold,
            aggs,
            cache,
            schema: Arc::new(Schema::new(fields)),
        })
    }
}

impl PhysicalOperator for SemanticGroupByExec {
    fn name(&self) -> String {
        format!(
            "SemanticGroupBy [cos>={}, model={}]",
            self.threshold,
            self.cache.model().name()
        )
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.input.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let ctx = QueryContext::current();
        let mut chunks: Vec<Chunk> = Vec::new();
        for chunk in self.input.execute()? {
            ctx.check()?;
            chunks.push(chunk?);
        }
        let distinct = Distinct::of_chunks(&chunks, self.column_index)?;
        let clusters = {
            let _span = cx_obs::span_with("semantic_cluster", || {
                format!(
                    "kind=group-by threshold={} values={}",
                    self.threshold,
                    distinct.values.len()
                )
            });
            cluster(&self.cache, &distinct.values, self.threshold, &ctx)?
        };

        // Cluster `c`'s accumulators are `accs[c * width..][..width]`; the
        // NULL cluster's come last.
        let (width, null_id) = (self.aggs.len(), clusters.leaders.len());
        let mut accs: Vec<_> = (0..=null_id)
            .flat_map(|_| self.aggs.fresh())
            .cloned()
            .collect();
        let mut any_null = false;
        let mut row_ids = distinct.row_ids.iter();
        for chunk in &chunks {
            for row in 0..chunk.num_rows() {
                let id = match row_ids.next().expect("one id per row") {
                    Some(v) => clusters.of_value[*v as usize] as usize,
                    None => {
                        any_null = true;
                        null_id
                    }
                };
                self.aggs.fold(&mut accs[id * width..][..width], chunk, row);
            }
        }

        let mut builders: Vec<ColumnBuilder> = self
            .schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        let leaders = clusters
            .leaders
            .iter()
            .map(|&v| Some(distinct.values[v as usize]));
        let groups = leaders.chain(any_null.then_some(None));
        for (id, representative) in groups.enumerate() {
            builders[0].push(representative.map_or(Scalar::Null, Scalar::from))?;
            builders[1].push(Scalar::Int64(id as i64))?;
            for (b, acc) in builders[2..].iter_mut().zip(&accs[id * width..][..width]) {
                b.push(acc.finish())?;
            }
        }
        let columns: Vec<Column> = builders.into_iter().map(|b| b.finish()).collect();
        let chunk = Chunk::new(self.schema.clone(), columns)?;
        Ok(Box::new(std::iter::once(Ok(chunk))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::{ClusterGeometry, ClusterSpec, ClusteredTextModel, SemanticSpace};
    use cx_exec::logical::AggFunc;
    use cx_exec::{collect_table, TableScanExec};
    use cx_storage::{Bitmap, Table};

    fn cache() -> Arc<EmbeddingCache> {
        let space = SemanticSpace::build(
            &[
                ClusterSpec::new("dog", &["canine", "puppy"]),
                ClusterSpec::new("shoes", &["boots", "sneakers"]),
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

    fn sales_scan(with_null: bool) -> Arc<dyn PhysicalOperator> {
        let names = ["dog", "canine", "boots", "puppy", "sneakers", "boots"];
        let amounts = [10.0, 20.0, 5.0, 30.0, 7.0, 8.0];
        let validity = if with_null {
            Some(Bitmap::from_bools([true, true, true, true, true, false]).into())
        } else {
            None
        };
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("name", DataType::Utf8),
                Field::new("amount", DataType::Float64),
            ]),
            vec![
                Column::Utf8 {
                    values: names.iter().map(|s| s.to_string()).collect(),
                    validity,
                },
                Column::from_f64(amounts.to_vec()),
            ],
        )
        .unwrap();
        Arc::new(TableScanExec::new(Arc::new(table)))
    }

    #[test]
    fn clusters_and_aggregates() {
        let gb = SemanticGroupByExec::new(
            sales_scan(false),
            "name",
            0.85,
            &[
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Sum, "amount", "total"),
            ],
            cache(),
        )
        .unwrap();
        let out = collect_table(&gb).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(
            out.schema().names(),
            vec!["name", "cluster_id", "n", "total"]
        );
        // Cluster 0 founded by "dog": dog, canine, puppy.
        let row0 = out.row(0).unwrap();
        assert_eq!(row0[0], Scalar::from("dog"));
        assert_eq!(row0[2], Scalar::Int64(3));
        assert_eq!(row0[3], Scalar::Float64(60.0));
        // Cluster 1 founded by "boots": boots×2, sneakers.
        let row1 = out.row(1).unwrap();
        assert_eq!(row1[0], Scalar::from("boots"));
        assert_eq!(row1[2], Scalar::Int64(3));
        assert_eq!(row1[3], Scalar::Float64(20.0));
    }

    #[test]
    fn null_values_form_their_own_group() {
        let gb = SemanticGroupByExec::new(
            sales_scan(true),
            "name",
            0.85,
            &[AggSpec::count_star("n")],
            cache(),
        )
        .unwrap();
        let out = collect_table(&gb).unwrap();
        assert_eq!(out.num_rows(), 3);
        let last = out.row(2).unwrap();
        assert_eq!(last[0], Scalar::Null);
        assert_eq!(last[2], Scalar::Int64(1));
    }

    #[test]
    fn high_threshold_degenerates_to_exact_grouping() {
        let gb = SemanticGroupByExec::new(
            sales_scan(false),
            "name",
            0.999,
            &[AggSpec::count_star("n")],
            cache(),
        )
        .unwrap();
        let out = collect_table(&gb).unwrap();
        // 5 distinct strings.
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn validation_errors() {
        assert!(SemanticGroupByExec::new(sales_scan(false), "amount", 0.9, &[], cache()).is_err());
        assert!(SemanticGroupByExec::new(sales_scan(false), "name", 2.0, &[], cache()).is_err());
        let bad_agg = AggSpec {
            func: AggFunc::Sum,
            column: None,
            alias: "x".into(),
        };
        assert!(
            SemanticGroupByExec::new(sales_scan(false), "name", 0.9, &[bad_agg], cache()).is_err()
        );
    }
}
