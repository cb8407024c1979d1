//! Semantic Group-By: on-the-fly clustering with per-cluster aggregates.
//!
//! "Semantic GroupBy — on-the-fly clustering of the result based on a
//! model-based similarity threshold" (Section IV). Rows stream through the
//! online clusterer; aggregates accumulate per cluster exactly as in the
//! relational hash aggregate.

use crate::consolidate::OnlineClusterer;
use cx_embed::EmbeddingCache;
use cx_exec::logical::{AggFunc, AggSpec};
use cx_exec::{Accumulator, ChunkStream, PhysicalOperator};
use cx_storage::{Chunk, Column, ColumnBuilder, DataType, Error, Field, Result, Scalar, Schema};
use std::sync::Arc;

/// Groups rows by the semantic cluster of a string column.
///
/// Output schema: `[column (representative), cluster_id, ...aggregates]`.
/// NULL values form their own cluster with a NULL representative.
pub struct SemanticGroupByExec {
    input: Arc<dyn PhysicalOperator>,
    column_index: usize,
    threshold: f32,
    aggs: Vec<(AggSpec, Option<usize>)>,
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
        let mut fields = vec![
            Field::new(column, DataType::Utf8),
            Field::new("cluster_id", DataType::Int64),
        ];
        let mut agg_cols = Vec::with_capacity(aggs.len());
        for agg in aggs {
            let idx = agg
                .column
                .as_deref()
                .map(|c| in_schema.index_of(c))
                .transpose()?;
            if idx.is_none() && agg.func != AggFunc::CountStar {
                return Err(Error::InvalidArgument(format!(
                    "{} requires an input column",
                    agg.func
                )));
            }
            fields.push(agg.output_field(&in_schema)?);
            agg_cols.push((agg.clone(), idx));
        }
        Ok(SemanticGroupByExec {
            input,
            column_index,
            threshold,
            aggs: agg_cols,
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
        let in_schema = self.input.schema();
        let make_accs = || -> Vec<Accumulator> {
            self.aggs
                .iter()
                .map(|(spec, idx)| {
                    Accumulator::new(spec.func, idx.map(|i| in_schema.fields()[i].data_type))
                })
                .collect()
        };

        let mut clusterer = OnlineClusterer::new(self.cache.dim(), self.threshold);
        let mut cluster_accs: Vec<Vec<Accumulator>> = Vec::new();
        let mut null_accs: Option<Vec<Accumulator>> = None;

        let _sweep = cx_obs::span_with("semantic_cluster", || {
            format!("kind=group-by threshold={}", self.threshold)
        });
        let ctx = cx_storage::QueryContext::current();
        for chunk in self.input.execute()? {
            ctx.check()?;
            let chunk: Chunk = chunk?;
            let col = chunk.column(self.column_index)?;
            let values = col.utf8_values()?;
            for (row, value) in values.iter().enumerate() {
                let accs = if col.is_valid(row) {
                    let emb = self.cache.get(value);
                    let id = clusterer.assign(value, &emb);
                    if id == cluster_accs.len() {
                        cluster_accs.push(make_accs());
                    }
                    &mut cluster_accs[id]
                } else {
                    null_accs.get_or_insert_with(make_accs)
                };
                for ((spec, idx), acc) in self.aggs.iter().zip(accs.iter_mut()) {
                    match (spec.func, idx) {
                        (AggFunc::CountStar, _) => acc.update(None),
                        (AggFunc::Count, Some(i)) => {
                            if chunk.columns()[*i].is_valid(row) {
                                acc.update(None);
                            }
                        }
                        (_, Some(i)) => {
                            let v = chunk.columns()[*i].get(row);
                            acc.update(Some(&v));
                        }
                        (_, None) => unreachable!("validated in constructor"),
                    }
                }
            }
        }

        let mut builders: Vec<ColumnBuilder> = self
            .schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        for (id, accs) in cluster_accs.iter().enumerate() {
            builders[0].push(Scalar::Utf8(clusterer.representative(id).to_string()))?;
            builders[1].push(Scalar::Int64(id as i64))?;
            for (b, acc) in builders.iter_mut().skip(2).zip(accs.iter()) {
                b.push(acc.finish())?;
            }
        }
        if let Some(accs) = &null_accs {
            builders[0].push_null();
            builders[1].push(Scalar::Int64(cluster_accs.len() as i64))?;
            for (b, acc) in builders.iter_mut().skip(2).zip(accs.iter()) {
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
