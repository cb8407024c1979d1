//! Relational physical operators.
//!
//! Pipeline-friendly operators (scan, filter, project, limit, union) stream
//! lazily; pipeline breakers (joins, aggregation, sort, distinct) materialize
//! eagerly inside `execute` — the engine is in-memory, so eager breakers keep
//! the code straightforward without changing asymptotics.

use crate::keys::{id, KeyIndex, NONE};
use crate::logical::{AggFunc, AggSpec, JoinType};
use crate::physical::{ChunkStream, PhysicalOperator};
use cx_expr::{eval, eval_predicate, BoundExpr, Expr};
use cx_storage::{
    Chunk, Column, ColumnBuilder, DataType, Error, Field, QueryContext, Result, Scalar, Schema,
    Table,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// Total order over scalars used for sorting and deterministic group output:
/// NULL first, then by type family. Two Int64s or two Timestamps compare
/// exactly; other numeric pairs cross-compare as f64.
pub fn scalar_cmp(a: &Scalar, b: &Scalar) -> Ordering {
    fn rank(s: &Scalar) -> u8 {
        match s {
            Scalar::Null => 0,
            Scalar::Bool(_) => 1,
            Scalar::Int64(_) | Scalar::Float64(_) | Scalar::Timestamp(_) => 2,
            Scalar::Utf8(_) => 3,
        }
    }
    match rank(a).cmp(&rank(b)) {
        Ordering::Equal => match (a, b) {
            (Scalar::Null, Scalar::Null) => Ordering::Equal,
            (Scalar::Bool(x), Scalar::Bool(y)) => x.cmp(y),
            (Scalar::Utf8(x), Scalar::Utf8(y)) => x.cmp(y),
            (Scalar::Int64(x), Scalar::Int64(y)) | (Scalar::Timestamp(x), Scalar::Timestamp(y)) => {
                x.cmp(y)
            }
            _ => {
                let (x, y) = (a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0));
                x.total_cmp(&y)
            }
        },
        other => other,
    }
}

/// [`scalar_cmp`] of two cells of one column, read in place:
/// `cell_cmp(col, a, b) == scalar_cmp(&col.get(a), &col.get(b))`.
pub fn cell_cmp(col: &Column, a: usize, b: usize) -> Ordering {
    match (col.is_valid(a), col.is_valid(b)) {
        (true, true) => {}
        (va, vb) => return va.cmp(&vb),
    }
    match col {
        Column::Bool { values, .. } => values[a].cmp(&values[b]),
        Column::Int64 { values, .. } | Column::Timestamp { values, .. } => {
            values[a].cmp(&values[b])
        }
        Column::Float64 { values, .. } => values[a].total_cmp(&values[b]),
        Column::Utf8 { values, .. } => values[a].cmp(&values[b]),
    }
}

/// Rows `a` and `b` in the lexicographic order of `keys`: a column, the
/// row ids it is read through (`None`: the rows themselves), ascending.
pub fn keys_cmp(keys: &[(&Column, Option<&[usize]>, bool)], a: usize, b: usize) -> Ordering {
    for &(col, rows, asc) in keys {
        let (x, y) = rows.map_or((a, b), |r| (r[a], r[b]));
        match cell_cmp(col, x, y) {
            Ordering::Equal => {}
            ord if asc => return ord,
            ord => return ord.reverse(),
        }
    }
    Ordering::Equal
}

/// The positions of the first `k` of `0..n` in the order `cmp` gives,
/// ties broken by position — the first `k` rows of a stable sort. One
/// selection pass, then a sort of the `k` survivors.
pub fn top_n_by(n: usize, k: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let total = |a: &usize, b: &usize| cmp(*a, *b).then(a.cmp(b));
    let mut rows: Vec<usize> = (0..n).collect();
    if k < n {
        rows.select_nth_unstable_by(k - 1, total);
        rows.truncate(k);
    }
    rows.sort_unstable_by(total);
    rows
}

// ---------------------------------------------------------------------------
// TableScan
// ---------------------------------------------------------------------------

/// Scans an in-memory table chunk by chunk.
pub struct TableScanExec {
    table: Arc<Table>,
}

impl TableScanExec {
    /// A scan over `table`.
    pub fn new(table: Arc<Table>) -> Self {
        TableScanExec { table }
    }
}

impl PhysicalOperator for TableScanExec {
    fn name(&self) -> String {
        format!("TableScan [{} rows]", self.table.num_rows())
    }

    fn schema(&self) -> Arc<Schema> {
        self.table.schema().clone()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let table = self.table.clone();
        let n = table.chunks().len();
        Ok(Box::new((0..n).map(move |i| Ok(table.chunks()[i].clone()))))
    }
}

// ---------------------------------------------------------------------------
// SystemTableScan
// ---------------------------------------------------------------------------

/// Scans a live system-table source (`cx.*`): every `execute` takes a
/// fresh snapshot, so repeated scans of the same physical plan observe
/// the state as of each scan, not of plan creation.
pub struct SystemTableScanExec {
    source: Arc<dyn cx_storage::SystemTableSource>,
}

impl SystemTableScanExec {
    /// A scan over the live source.
    pub fn new(source: Arc<dyn cx_storage::SystemTableSource>) -> Self {
        SystemTableScanExec { source }
    }
}

impl PhysicalOperator for SystemTableScanExec {
    fn name(&self) -> String {
        format!("SystemTableScan [{}]", self.source.name())
    }

    fn schema(&self) -> Arc<Schema> {
        self.source.schema()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let schema = self.source.schema();
        let chunks = self.source.snapshot()?;
        for c in &chunks {
            if c.schema().fields() != schema.fields() {
                return Err(Error::InvalidArgument(format!(
                    "system table {} produced a chunk not matching its declared schema",
                    self.source.name()
                )));
            }
        }
        Ok(Box::new(chunks.into_iter().map(Ok)))
    }
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

/// Filters rows by a boolean predicate.
pub struct FilterExec {
    input: Arc<dyn PhysicalOperator>,
    predicate: BoundExpr,
    display: String,
}

impl FilterExec {
    /// Binds `predicate` against the input schema.
    pub fn new(input: Arc<dyn PhysicalOperator>, predicate: &Expr) -> Result<Self> {
        let bound = predicate.bind(&input.schema())?;
        if bound.data_type() != Some(DataType::Bool) {
            return Err(Error::TypeMismatch {
                expected: "BOOL predicate".into(),
                actual: format!("{:?}", bound.data_type()),
            });
        }
        Ok(FilterExec {
            input,
            predicate: bound,
            display: format!("Filter [{predicate}]"),
        })
    }
}

impl PhysicalOperator for FilterExec {
    fn name(&self) -> String {
        self.display.clone()
    }

    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.input.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let stream = self.input.execute()?;
        let predicate = self.predicate.clone();
        // Captured once on the installing thread; the clone keeps working
        // wherever the stream is later driven (see `cx_storage::qctx`).
        let ctx = QueryContext::current();
        Ok(Box::new(stream.map(move |chunk| {
            ctx.check()?;
            let chunk = chunk?;
            let mask = eval_predicate(&predicate, &chunk)?;
            chunk.filter(&mask)
        })))
    }
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

/// Computes output columns from expressions.
pub struct ProjectExec {
    input: Arc<dyn PhysicalOperator>,
    exprs: Vec<BoundExpr>,
    schema: Arc<Schema>,
}

impl ProjectExec {
    /// Binds `(expr, name)` pairs against the input schema.
    pub fn new(input: Arc<dyn PhysicalOperator>, exprs: &[(Expr, String)]) -> Result<Self> {
        let in_schema = input.schema();
        let mut bound = Vec::with_capacity(exprs.len());
        let mut fields = Vec::with_capacity(exprs.len());
        for (expr, name) in exprs {
            let b = expr.bind(&in_schema)?;
            fields.push(Field::new(
                name.clone(),
                b.data_type().unwrap_or(DataType::Bool),
            ));
            bound.push(b);
        }
        Ok(ProjectExec {
            input,
            exprs: bound,
            schema: Arc::new(Schema::new(fields)),
        })
    }
}

impl PhysicalOperator for ProjectExec {
    fn name(&self) -> String {
        format!("Project [{} cols]", self.exprs.len())
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.input.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let stream = self.input.execute()?;
        let exprs = self.exprs.clone();
        let schema = self.schema.clone();
        let ctx = QueryContext::current();
        Ok(Box::new(stream.map(move |chunk| {
            ctx.check()?;
            let chunk = chunk?;
            let columns = exprs
                .iter()
                .map(|e| eval(e, &chunk))
                .collect::<Result<Vec<_>>>()?;
            Chunk::new(schema.clone(), columns)
        })))
    }
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Hash equi-join; the left side builds, the right side probes.
pub struct HashJoinExec {
    left: Arc<dyn PhysicalOperator>,
    right: Arc<dyn PhysicalOperator>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    join_type: JoinType,
    schema: Arc<Schema>,
}

impl HashJoinExec {
    /// Joins on `(left_col, right_col)` name pairs.
    pub fn new(
        left: Arc<dyn PhysicalOperator>,
        right: Arc<dyn PhysicalOperator>,
        on: &[(String, String)],
        join_type: JoinType,
    ) -> Result<Self> {
        if on.is_empty() {
            return Err(Error::InvalidArgument("hash join requires keys".into()));
        }
        let (ls, rs) = (left.schema(), right.schema());
        let mut left_keys = Vec::with_capacity(on.len());
        let mut right_keys = Vec::with_capacity(on.len());
        for (l, r) in on {
            left_keys.push(ls.index_of(l)?);
            right_keys.push(rs.index_of(r)?);
        }
        let schema = Arc::new(match join_type {
            JoinType::LeftSemi | JoinType::LeftAnti => (*ls).clone(),
            _ => ls.join(&rs),
        });
        Ok(HashJoinExec {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            schema,
        })
    }
}

/// The columns at `keys` of `chunk`.
fn key_columns<'a>(chunk: &'a Chunk, keys: &[usize]) -> Vec<&'a Column> {
    keys.iter().map(|&k| &chunk.columns()[k]).collect()
}

/// Every column of `chunk` gathered at `rows`, ready to be glued into a
/// join output chunk without another copy.
fn take_columns(chunk: &Chunk, rows: &[usize]) -> Result<Vec<Column>> {
    chunk.columns().iter().map(|c| c.take(rows)).collect()
}

impl PhysicalOperator for HashJoinExec {
    fn name(&self) -> String {
        format!("HashJoin [{}]", self.join_type)
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.left.clone(), self.right.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let ctx = QueryContext::current();
        // Build phase: materialize left side.
        let left_chunks = self.left.execute()?.collect::<Result<Vec<_>>>()?;
        let left_schema = self.left.schema();
        let build = if left_chunks.is_empty() {
            Chunk::empty(left_schema.clone())
        } else {
            Chunk::concat(&left_chunks)?
        };
        ctx.charge(build.memory_bytes());
        ctx.check()?;
        // Each distinct build key heads a chain of its rows through `next`.
        // Walking the build side backwards and prepending leaves every
        // chain in ascending row order.
        id(build.num_rows())?;
        let build_keys = key_columns(&build, &self.left_keys);
        let mut index = KeyIndex::new(build_keys.len());
        let mut first: Vec<u32> = Vec::new();
        let mut next = vec![NONE; build.num_rows()];
        for row in (0..build.num_rows()).rev() {
            // SQL: NULL keys never match, so they never enter the index.
            if build_keys.iter().any(|c| !c.is_valid(row)) {
                continue;
            }
            match index.insert(&build_keys, row)? {
                (_, true) => first.push(row as u32),
                (key, false) => {
                    next[row] = first[key as usize];
                    first[key as usize] = row as u32;
                }
            }
        }

        let mut matched_left = vec![false; build.num_rows()];
        let mut out_chunks: Vec<Chunk> = Vec::new();

        // Probe phase.
        for chunk in self.right.execute()? {
            ctx.check()?;
            let chunk = chunk?;
            let probe_keys = key_columns(&chunk, &self.right_keys);
            let mut left_idx = Vec::new();
            let mut right_idx = Vec::new();
            for row in 0..chunk.num_rows() {
                let Some(key) = index.find(&probe_keys, row) else {
                    continue;
                };
                let mut l = first[key as usize];
                while l != NONE {
                    matched_left[l as usize] = true;
                    left_idx.push(l as usize);
                    right_idx.push(row);
                    l = next[l as usize];
                }
            }
            if matches!(self.join_type, JoinType::Inner | JoinType::Left) && !left_idx.is_empty() {
                let mut columns = take_columns(&build, &left_idx)?;
                columns.extend(take_columns(&chunk, &right_idx)?);
                out_chunks.push(Chunk::new(self.schema.clone(), columns)?);
            }
        }

        // Emit unmatched / matched left rows for outer, semi and anti joins.
        match self.join_type {
            JoinType::Inner => {}
            JoinType::Left => {
                let unmatched: Vec<usize> = matched_left
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| !**m)
                    .map(|(i, _)| i)
                    .collect();
                if !unmatched.is_empty() {
                    let mut columns = take_columns(&build, &unmatched)?;
                    columns.extend(
                        self.right
                            .schema()
                            .fields()
                            .iter()
                            .map(|f| Column::nulls(f.data_type, unmatched.len())),
                    );
                    out_chunks.push(Chunk::new(self.schema.clone(), columns)?);
                }
            }
            JoinType::LeftSemi | JoinType::LeftAnti => {
                let want = self.join_type == JoinType::LeftSemi;
                let keep: Vec<usize> = matched_left
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| **m == want)
                    .map(|(i, _)| i)
                    .collect();
                out_chunks.push(Chunk::new(
                    self.schema.clone(),
                    take_columns(&build, &keep)?,
                )?);
            }
        }

        if out_chunks.is_empty() {
            out_chunks.push(Chunk::empty(self.schema.clone()));
        }
        Ok(Box::new(out_chunks.into_iter().map(Ok)))
    }
}

/// Rebuilds `chunk` under `schema` (same arity/types, possibly renamed
/// fields after join disambiguation).
fn reschema(chunk: Chunk, schema: Arc<Schema>) -> Result<Chunk> {
    Chunk::new(schema, chunk.columns().to_vec())
}

// ---------------------------------------------------------------------------
// Nested-loop join
// ---------------------------------------------------------------------------

/// Inner nested-loop join with an arbitrary (theta) predicate over the
/// combined row; `None` yields the cross product.
pub struct NestedLoopJoinExec {
    left: Arc<dyn PhysicalOperator>,
    right: Arc<dyn PhysicalOperator>,
    predicate: Option<Expr>,
    schema: Arc<Schema>,
}

impl NestedLoopJoinExec {
    /// Creates the join; the predicate is bound against the joined schema.
    pub fn new(
        left: Arc<dyn PhysicalOperator>,
        right: Arc<dyn PhysicalOperator>,
        predicate: Option<Expr>,
    ) -> Result<Self> {
        let schema = Arc::new(left.schema().join(&right.schema()));
        if let Some(p) = &predicate {
            p.bind(&schema)?; // validate early
        }
        Ok(NestedLoopJoinExec {
            left,
            right,
            predicate,
            schema,
        })
    }
}

impl PhysicalOperator for NestedLoopJoinExec {
    fn name(&self) -> String {
        match &self.predicate {
            Some(p) => format!("NestedLoopJoin [{p}]"),
            None => "NestedLoopJoin [cross]".to_string(),
        }
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.left.clone(), self.right.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
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
        let bound = self
            .predicate
            .as_ref()
            .map(|p| p.bind(&self.schema))
            .transpose()?;

        let ctx = QueryContext::current();
        ctx.charge(left.memory_bytes() + right.memory_bytes());
        let mut out_chunks = Vec::new();
        let rn = right.num_rows();
        // Pair each left row with the whole right side, vectorized.
        for l in 0..left.num_rows() {
            // Each iteration pairs one left row against the entire right
            // side — heavy enough to warrant a per-iteration check.
            ctx.check()?;
            if rn == 0 {
                break;
            }
            let l_rep = left.take(&vec![l; rn])?;
            let pairs = reschema(l_rep.zip(&right)?, self.schema.clone())?;
            let filtered = match &bound {
                Some(b) => {
                    let mask = eval_predicate(b, &pairs)?;
                    pairs.filter(&mask)?
                }
                None => pairs,
            };
            if filtered.num_rows() > 0 {
                out_chunks.push(filtered);
            }
        }
        if out_chunks.is_empty() {
            out_chunks.push(Chunk::empty(self.schema.clone()));
        }
        Ok(Box::new(out_chunks.into_iter().map(Ok)))
    }
}

// ---------------------------------------------------------------------------
// Hash aggregate
// ---------------------------------------------------------------------------

/// A single aggregate accumulator, shared by [`HashAggregateExec`] and the
/// semantic group-by operator.
#[derive(Debug, Clone)]
pub enum Accumulator {
    Count(i64),
    Sum { sum: f64, any: bool, int: bool },
    MinMax { best: Option<Scalar>, is_min: bool },
    Avg { sum: f64, n: i64 },
}

impl Accumulator {
    /// A fresh accumulator for `func` over an input of `input_type`.
    pub fn new(func: AggFunc, input_type: Option<DataType>) -> Accumulator {
        match func {
            AggFunc::CountStar | AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum => Accumulator::Sum {
                sum: 0.0,
                any: false,
                int: input_type == Some(DataType::Int64),
            },
            AggFunc::Min => Accumulator::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => Accumulator::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
        }
    }

    /// Folds one row in. `CountStar`/`Count` callers pass `None` per
    /// counted row (Count rows with NULL input must be skipped by the
    /// caller); value-aggregates pass the row's scalar.
    pub fn update(&mut self, value: Option<&Scalar>) {
        match self {
            Accumulator::Count(n) => {
                // CountStar passes None-with-any-row; Count passes the value
                // and skips NULLs (handled by caller convention below).
                *n += 1;
            }
            Accumulator::Sum { sum, any, .. } => {
                if let Some(v) = value.and_then(|v| v.as_f64()) {
                    *sum += v;
                    *any = true;
                }
            }
            Accumulator::MinMax { best, is_min } => {
                if let Some(v) = value {
                    if v.is_null() {
                        return;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => {
                            let ord = scalar_cmp(v, b);
                            if *is_min {
                                ord == Ordering::Less
                            } else {
                                ord == Ordering::Greater
                            }
                        }
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(v) = value.and_then(|v| v.as_f64()) {
                    *sum += v;
                    *n += 1;
                }
            }
        }
    }

    /// The aggregate result.
    pub fn finish(&self) -> Scalar {
        match self {
            Accumulator::Count(n) => Scalar::Int64(*n),
            Accumulator::Sum { sum, any, int } => {
                if !any {
                    Scalar::Null
                } else if *int {
                    Scalar::Int64(*sum as i64)
                } else {
                    Scalar::Float64(*sum)
                }
            }
            Accumulator::MinMax { best, .. } => best.clone().unwrap_or(Scalar::Null),
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Scalar::Null
                } else {
                    Scalar::Float64(*sum / *n as f64)
                }
            }
        }
    }
}

/// An aggregate operator's aggregates, resolved against its input, shared
/// by [`HashAggregateExec`] and the semantic group-by operator.
pub struct Aggregates {
    /// Each aggregate with its input column (`None` for `COUNT(*)`).
    specs: Vec<(AggSpec, Option<usize>)>,
    /// One fresh accumulator per aggregate, typed by its input column.
    fresh: Vec<Accumulator>,
}

impl Aggregates {
    /// Resolves `aggs` against the operator's `input` schema, returning
    /// them with their output fields; every aggregate but `COUNT(*)`
    /// needs an input column.
    pub fn resolve(aggs: &[AggSpec], input: &Schema) -> Result<(Self, Vec<Field>)> {
        let mut specs = Vec::with_capacity(aggs.len());
        let mut fresh = Vec::with_capacity(aggs.len());
        let mut fields = Vec::with_capacity(aggs.len());
        for agg in aggs {
            let idx = agg
                .column
                .as_deref()
                .map(|c| input.index_of(c))
                .transpose()?;
            if idx.is_none() && agg.func != AggFunc::CountStar {
                return Err(Error::InvalidArgument(format!(
                    "{} requires an input column",
                    agg.func
                )));
            }
            fields.push(agg.output_field(input)?);
            fresh.push(Accumulator::new(
                agg.func,
                idx.map(|i| input.fields()[i].data_type),
            ));
            specs.push((agg.clone(), idx));
        }
        Ok((Aggregates { specs, fresh }, fields))
    }

    /// Number of aggregates.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether there are no aggregates.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// A group's fresh accumulators, one per aggregate.
    pub fn fresh(&self) -> &[Accumulator] {
        &self.fresh
    }

    /// Folds row `row` of `chunk` into a group's accumulators: `COUNT(*)`
    /// counts every row, `COUNT(col)` the rows whose `col` is valid, and
    /// every other aggregate folds the row's value.
    pub fn fold(&self, accs: &mut [Accumulator], chunk: &Chunk, row: usize) {
        for ((spec, idx), acc) in self.specs.iter().zip(accs) {
            match (spec.func, idx) {
                (AggFunc::CountStar, _) => acc.update(None),
                (AggFunc::Count, Some(i)) => {
                    if chunk.columns()[*i].is_valid(row) {
                        acc.update(None);
                    }
                }
                (_, Some(i)) => acc.update(Some(&chunk.columns()[*i].get(row))),
                (_, None) => unreachable!("checked in resolve"),
            }
        }
    }
}

/// Hash aggregation with optional grouping keys.
pub struct HashAggregateExec {
    input: Arc<dyn PhysicalOperator>,
    group_by: Vec<usize>,
    aggs: Aggregates,
    schema: Arc<Schema>,
}

impl HashAggregateExec {
    /// Creates the aggregate; resolves column names eagerly.
    pub fn new(
        input: Arc<dyn PhysicalOperator>,
        group_by: &[String],
        aggs: &[AggSpec],
    ) -> Result<Self> {
        let in_schema = input.schema();
        let mut group_idx = Vec::with_capacity(group_by.len());
        let mut fields = Vec::new();
        for name in group_by {
            group_idx.push(in_schema.index_of(name)?);
            fields.push(in_schema.field(name)?.clone());
        }
        let (aggs, agg_fields) = Aggregates::resolve(aggs, &in_schema)?;
        fields.extend(agg_fields);
        Ok(HashAggregateExec {
            input,
            group_by: group_idx,
            aggs,
            schema: Arc::new(Schema::new(fields)),
        })
    }
}

impl PhysicalOperator for HashAggregateExec {
    fn name(&self) -> String {
        format!(
            "HashAggregate [keys={}, aggs={}]",
            self.group_by.len(),
            self.aggs.len()
        )
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.input.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let width = self.aggs.len();
        let mut groups = KeyIndex::new(self.group_by.len());
        // Group `g`'s accumulators are `accs[g * width..][..width]`.
        let mut accs: Vec<Accumulator> = Vec::new();

        let ctx = QueryContext::current();
        for chunk in self.input.execute()? {
            ctx.check()?;
            let chunk = chunk?;
            let keys = key_columns(&chunk, &self.group_by);
            for row in 0..chunk.num_rows() {
                let (g, new) = groups.insert(&keys, row)?;
                if new {
                    accs.extend_from_slice(self.aggs.fresh());
                }
                self.aggs
                    .fold(&mut accs[g as usize * width..][..width], &chunk, row);
            }
        }

        // Global aggregate over empty input still yields one row.
        if self.group_by.is_empty() && groups.len() == 0 {
            groups.insert(&[], 0)?;
            accs = self.aggs.fresh().to_vec();
        }

        // Deterministic output order: group keys sorted stably over
        // first-seen order.
        let mut order: Vec<u32> = (0..groups.len() as u32).collect();
        order.sort_by(|&a, &b| {
            groups
                .key(a)
                .iter()
                .zip(groups.key(b))
                .map(|(x, y)| scalar_cmp(x, y))
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });

        let mut builders: Vec<ColumnBuilder> = self
            .schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        for g in order {
            let key = groups.key(g);
            for (b, v) in builders.iter_mut().zip(key) {
                b.push(v.clone())?;
            }
            let group = &accs[g as usize * width..][..width];
            for (b, acc) in builders.iter_mut().skip(key.len()).zip(group) {
                b.push(acc.finish())?;
            }
        }
        let columns: Vec<Column> = builders.into_iter().map(|b| b.finish()).collect();
        let chunk = Chunk::new(self.schema.clone(), columns)?;
        Ok(Box::new(std::iter::once(Ok(chunk))))
    }
}

// ---------------------------------------------------------------------------
// Sort / Limit / Distinct / Union
// ---------------------------------------------------------------------------

/// Total sort by one or more keys, optionally bounded to its first `k`
/// rows (`ORDER BY … LIMIT k`).
pub struct SortExec {
    input: Arc<dyn PhysicalOperator>,
    /// `(column index, ascending)`.
    keys: Vec<(usize, bool)>,
    limit: Option<usize>,
}

impl SortExec {
    /// Creates a sort over `(column, ascending)` name pairs.
    pub fn new(input: Arc<dyn PhysicalOperator>, keys: &[(String, bool)]) -> Result<Self> {
        let schema = input.schema();
        let keys = keys
            .iter()
            .map(|(name, asc)| Ok((schema.index_of(name)?, *asc)))
            .collect::<Result<Vec<_>>>()?;
        if keys.is_empty() {
            return Err(Error::InvalidArgument("sort requires keys".into()));
        }
        Ok(SortExec {
            input,
            keys,
            limit: None,
        })
    }

    /// Keeps only the first `k` rows of the sorted order.
    pub fn with_limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }
}

impl PhysicalOperator for SortExec {
    fn name(&self) -> String {
        let limit = self.limit.map_or(String::new(), |k| format!(", limit {k}"));
        format!("Sort [{} keys{limit}]", self.keys.len())
    }

    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.input.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let ctx = QueryContext::current();
        let mut chunks = self.input.execute()?.collect::<Result<Vec<_>>>()?;
        let all = match chunks.len() {
            0 => Chunk::empty(self.schema()),
            1 => chunks.pop().expect("one chunk"),
            _ => Chunk::concat(&chunks)?,
        };
        ctx.charge(all.memory_bytes());
        // The comparison sort itself is not interruptible; one check
        // before it bounds overshoot to the sort of already-admitted rows.
        ctx.check()?;
        let n = all.num_rows();
        let k = self.limit.map_or(n, |k| k.min(n));
        let _span = cx_obs::span_with("sort", || format!("rows={n} k={k}"));
        let keys: Vec<_> = self
            .keys
            .iter()
            .map(|&(c, asc)| (&all.columns()[c], None, asc))
            .collect();
        let sorted = all.take(&top_n_by(n, k, |a, b| keys_cmp(&keys, a, b)))?;
        Ok(Box::new(std::iter::once(Ok(sorted))))
    }
}

/// Emits the first `n` rows.
pub struct LimitExec {
    input: Arc<dyn PhysicalOperator>,
    n: usize,
}

impl LimitExec {
    /// A limit of `n` rows.
    pub fn new(input: Arc<dyn PhysicalOperator>, n: usize) -> Self {
        LimitExec { input, n }
    }
}

impl PhysicalOperator for LimitExec {
    fn name(&self) -> String {
        format!("Limit [{}]", self.n)
    }

    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.input.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let stream = self.input.execute()?;
        let mut remaining = self.n;
        Ok(Box::new(stream.map_while(move |chunk| {
            if remaining == 0 {
                return None;
            }
            let chunk = match chunk {
                Ok(c) => c,
                Err(e) => return Some(Err(e)),
            };
            if chunk.num_rows() <= remaining {
                remaining -= chunk.num_rows();
                Some(Ok(chunk))
            } else {
                let sliced = chunk.slice(0, remaining);
                remaining = 0;
                Some(sliced)
            }
        })))
    }
}

/// Removes duplicate rows (first occurrence wins).
pub struct DistinctExec {
    input: Arc<dyn PhysicalOperator>,
}

impl DistinctExec {
    /// Duplicate elimination over all columns.
    pub fn new(input: Arc<dyn PhysicalOperator>) -> Self {
        DistinctExec { input }
    }
}

impl PhysicalOperator for DistinctExec {
    fn name(&self) -> String {
        "Distinct".to_string()
    }

    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        vec![self.input.clone()]
    }

    fn execute(&self) -> Result<ChunkStream> {
        let ctx = QueryContext::current();
        let mut seen = KeyIndex::new(self.schema().len());
        let mut out = Vec::new();
        for chunk in self.input.execute()? {
            ctx.check()?;
            let chunk = chunk?;
            let cols: Vec<&Column> = chunk.columns().iter().collect();
            let mut keep = Vec::new();
            for row in 0..chunk.num_rows() {
                if seen.insert(&cols, row)?.1 {
                    keep.push(row);
                }
            }
            if !keep.is_empty() {
                out.push(chunk.take(&keep)?);
            }
        }
        if out.is_empty() {
            out.push(Chunk::empty(self.schema()));
        }
        Ok(Box::new(out.into_iter().map(Ok)))
    }
}

/// Concatenates same-schema inputs.
pub struct UnionExec {
    inputs: Vec<Arc<dyn PhysicalOperator>>,
}

impl UnionExec {
    /// A union over `inputs` (must be non-empty with matching schemas).
    pub fn new(inputs: Vec<Arc<dyn PhysicalOperator>>) -> Result<Self> {
        let first = inputs
            .first()
            .ok_or_else(|| Error::InvalidArgument("UNION of zero inputs".into()))?;
        for input in &inputs[1..] {
            if input.schema().fields() != first.schema().fields() {
                return Err(Error::InvalidArgument("UNION schema mismatch".into()));
            }
        }
        Ok(UnionExec { inputs })
    }
}

impl PhysicalOperator for UnionExec {
    fn name(&self) -> String {
        format!("Union [{}]", self.inputs.len())
    }

    fn schema(&self) -> Arc<Schema> {
        self.inputs[0].schema()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        self.inputs.clone()
    }

    fn execute(&self) -> Result<ChunkStream> {
        let mut streams = Vec::with_capacity(self.inputs.len());
        for input in &self.inputs {
            streams.push(input.execute()?);
        }
        Ok(Box::new(streams.into_iter().flatten()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::collect_table;
    use cx_expr::{col, lit};
    use cx_storage::Bitmap;

    fn products() -> Arc<dyn PhysicalOperator> {
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ]),
            vec![
                Column::from_i64(vec![1, 2, 3, 4, 5]),
                Column::from_strings(["boots", "parka", "boots", "mug", "coat"]),
                Column::from_f64(vec![30.0, 80.0, 25.0, 8.0, 60.0]),
            ],
        )
        .unwrap();
        Arc::new(TableScanExec::new(Arc::new(table)))
    }

    fn categories() -> Arc<dyn PhysicalOperator> {
        let table = Table::from_columns(
            Schema::new(vec![
                Field::new("label", DataType::Utf8),
                Field::new("kind", DataType::Utf8),
            ]),
            vec![
                Column::from_strings(["boots", "parka", "hat"]),
                Column::from_strings(["shoes", "jacket", "headwear"]),
            ],
        )
        .unwrap();
        Arc::new(TableScanExec::new(Arc::new(table)))
    }

    #[test]
    fn filter_and_project() {
        let filter = Arc::new(FilterExec::new(products(), &col("price").gt(lit(20.0))).unwrap());
        let project = ProjectExec::new(
            filter,
            &[
                (col("name"), "name".to_string()),
                (col("price").mul(lit(2.0)), "double".to_string()),
            ],
        )
        .unwrap();
        let out = collect_table(&project).unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.schema().names(), vec!["name", "double"]);
        assert_eq!(out.row(0).unwrap()[1], Scalar::Float64(60.0));
    }

    #[test]
    fn project_of_column_references_shares_the_tables_buffers() {
        let table = Arc::new(
            Table::from_columns(
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("name", DataType::Utf8),
                ]),
                vec![
                    Column::from_i64(vec![1, 2, 3, 4, 5]),
                    Column::from_strings(["boots", "parka", "boots", "mug", "coat"]),
                ],
            )
            .unwrap()
            .rechunk(2)
            .unwrap(),
        );
        let scan = Arc::new(TableScanExec::new(table.clone()));
        let project = ProjectExec::new(
            scan,
            &[
                (col("name"), "label".to_string()),
                (col("id"), "id".to_string()),
            ],
        )
        .unwrap();
        let out = crate::physical::collect(&project).unwrap();
        assert_eq!(out.len(), table.chunks().len());
        for (got, source) in out.iter().zip(table.chunks()) {
            let name = |c: &Chunk, i| c.column(i).unwrap().utf8_values().unwrap().as_ptr();
            let id = |c: &Chunk, i| c.column(i).unwrap().i64_values().unwrap().as_ptr();
            assert_eq!(name(got, 0), name(source, 1));
            assert_eq!(id(got, 1), id(source, 0));
        }
    }

    #[test]
    fn filter_type_check() {
        assert!(FilterExec::new(products(), &col("price").add(lit(1.0))).is_err());
        assert!(FilterExec::new(products(), &col("missing").gt(lit(1.0))).is_err());
    }

    #[test]
    fn hash_join_inner() {
        let join = HashJoinExec::new(
            products(),
            categories(),
            &[("name".to_string(), "label".to_string())],
            JoinType::Inner,
        )
        .unwrap();
        let out = collect_table(&join).unwrap();
        // boots matches twice (rows 1 and 3), parka once.
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.schema().len(), 5);
    }

    #[test]
    fn hash_join_left_outer_pads_nulls() {
        let join = HashJoinExec::new(
            products(),
            categories(),
            &[("name".to_string(), "label".to_string())],
            JoinType::Left,
        )
        .unwrap();
        let out = collect_table(&join).unwrap();
        assert_eq!(out.num_rows(), 5);
        let kind = out.column_by_name("kind").unwrap();
        assert_eq!(kind.null_count(), 2); // mug, coat unmatched
    }

    #[test]
    fn hash_join_semi_anti() {
        let semi = HashJoinExec::new(
            products(),
            categories(),
            &[("name".to_string(), "label".to_string())],
            JoinType::LeftSemi,
        )
        .unwrap();
        let out = collect_table(&semi).unwrap();
        assert_eq!(out.num_rows(), 3); // two boots + one parka
        assert_eq!(out.schema().len(), 3);

        let anti = HashJoinExec::new(
            products(),
            categories(),
            &[("name".to_string(), "label".to_string())],
            JoinType::LeftAnti,
        )
        .unwrap();
        let out = collect_table(&anti).unwrap();
        assert_eq!(out.num_rows(), 2); // mug, coat
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let t = Table::from_columns(
            Schema::new(vec![Field::new("k", DataType::Utf8)]),
            vec![Column::Utf8 {
                values: vec!["a".into(), "b".into()].into(),
                validity: Some(Bitmap::from_bools([true, false]).into()),
            }],
        )
        .unwrap();
        let scan: Arc<dyn PhysicalOperator> = Arc::new(TableScanExec::new(Arc::new(t)));
        let join = HashJoinExec::new(
            scan.clone(),
            scan,
            &[("k".to_string(), "k".to_string())],
            JoinType::Inner,
        )
        .unwrap();
        let out = collect_table(&join).unwrap();
        assert_eq!(out.num_rows(), 1); // only "a" = "a"
    }

    #[test]
    fn nested_loop_theta_join() {
        let join = NestedLoopJoinExec::new(
            products(),
            categories(),
            Some(col("name").eq(col("label")).and(col("price").gt(lit(26.0)))),
        )
        .unwrap();
        let out = collect_table(&join).unwrap();
        assert_eq!(out.num_rows(), 2); // boots@30, parka@80
    }

    #[test]
    fn nested_loop_cross_product() {
        let join = NestedLoopJoinExec::new(products(), categories(), None).unwrap();
        let out = collect_table(&join).unwrap();
        assert_eq!(out.num_rows(), 15);
    }

    #[test]
    fn aggregate_grouped() {
        let agg = HashAggregateExec::new(
            products(),
            &["name".to_string()],
            &[
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Sum, "price", "total"),
                AggSpec::new(AggFunc::Avg, "price", "avg"),
                AggSpec::new(AggFunc::Min, "price", "lo"),
                AggSpec::new(AggFunc::Max, "price", "hi"),
            ],
        )
        .unwrap();
        let out = collect_table(&agg).unwrap();
        assert_eq!(out.num_rows(), 4);
        // Sorted by key: boots, coat, mug, parka.
        let row = out.row(0).unwrap();
        assert_eq!(row[0], Scalar::from("boots"));
        assert_eq!(row[1], Scalar::Int64(2));
        assert_eq!(row[2], Scalar::Float64(55.0));
        assert_eq!(row[3], Scalar::Float64(27.5));
        assert_eq!(row[4], Scalar::Float64(25.0));
        assert_eq!(row[5], Scalar::Float64(30.0));
    }

    #[test]
    fn aggregate_global_on_empty_input() {
        let empty = Arc::new(
            FilterExec::new(products(), &lit(false).or(col("price").lt(lit(0.0)))).unwrap(),
        );
        let agg = HashAggregateExec::new(
            empty,
            &[],
            &[
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Sum, "price", "s"),
            ],
        )
        .unwrap();
        let out = collect_table(&agg).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0).unwrap()[0], Scalar::Int64(0));
        assert_eq!(out.row(0).unwrap()[1], Scalar::Null);
    }

    #[test]
    fn count_skips_nulls_countstar_does_not() {
        let t = Table::from_columns(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            vec![Column::Int64 {
                values: vec![1, 0, 3].into(),
                validity: Some(Bitmap::from_bools([true, false, true]).into()),
            }],
        )
        .unwrap();
        let scan = Arc::new(TableScanExec::new(Arc::new(t)));
        let agg = HashAggregateExec::new(
            scan,
            &[],
            &[
                AggSpec::count_star("all"),
                AggSpec::new(AggFunc::Count, "x", "nonnull"),
            ],
        )
        .unwrap();
        let out = collect_table(&agg).unwrap();
        assert_eq!(
            out.row(0).unwrap(),
            vec![Scalar::Int64(3), Scalar::Int64(2)]
        );
    }

    #[test]
    fn sort_multi_key() {
        let sort = SortExec::new(
            products(),
            &[("name".to_string(), true), ("price".to_string(), false)],
        )
        .unwrap();
        let out = collect_table(&sort).unwrap();
        let names: Vec<Scalar> = (0..5).map(|i| out.row(i).unwrap()[1].clone()).collect();
        assert_eq!(
            names,
            vec![
                Scalar::from("boots"),
                Scalar::from("boots"),
                Scalar::from("coat"),
                Scalar::from("mug"),
                Scalar::from("parka")
            ]
        );
        // boots sorted by price descending: 30 before 25.
        assert_eq!(out.row(0).unwrap()[2], Scalar::Float64(30.0));
    }

    #[test]
    fn limit_across_chunks() {
        let table = Table::from_rows(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            (0..10).map(|i| vec![Scalar::Int64(i)]).collect(),
        )
        .unwrap()
        .rechunk(3)
        .unwrap();
        let scan = Arc::new(TableScanExec::new(Arc::new(table)));
        let limit = LimitExec::new(scan, 7);
        let out = collect_table(&limit).unwrap();
        assert_eq!(out.num_rows(), 7);
        assert_eq!(out.row(6).unwrap()[0], Scalar::Int64(6));
    }

    #[test]
    fn distinct_keeps_first() {
        let distinct = DistinctExec::new(categories());
        let out = collect_table(&distinct).unwrap();
        assert_eq!(out.num_rows(), 3);

        let dup = UnionExec::new(vec![categories(), categories()]).unwrap();
        let distinct = DistinctExec::new(Arc::new(dup));
        let out = collect_table(&distinct).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn union_schema_mismatch_rejected() {
        assert!(UnionExec::new(vec![products(), categories()]).is_err());
        assert!(UnionExec::new(vec![]).is_err());
    }

    #[test]
    fn scalar_cmp_total_order() {
        let mut vals = [
            Scalar::from("b"),
            Scalar::Null,
            Scalar::Int64(5),
            Scalar::Float64(2.5),
            Scalar::from("a"),
            Scalar::Bool(true),
        ];
        vals.sort_by(scalar_cmp);
        assert_eq!(vals[0], Scalar::Null);
        assert_eq!(vals[1], Scalar::Bool(true));
        assert_eq!(vals[2], Scalar::Float64(2.5));
        assert_eq!(vals[3], Scalar::Int64(5));
        assert_eq!(vals[4], Scalar::from("a"));
    }

    #[test]
    fn cell_cmp_is_scalar_cmp_in_every_column_type() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let columns: Vec<Vec<Scalar>> = vec![
            vec![Scalar::Bool(true), Scalar::Null, Scalar::Bool(false)],
            vec![
                Scalar::Int64(1 << 53),
                Scalar::Int64((1 << 53) + 1),
                Scalar::Null,
                Scalar::Int64(-3),
            ],
            vec![
                Scalar::Float64(0.0),
                Scalar::Float64(-0.0),
                Scalar::Float64(f64::NAN),
                Scalar::Float64(nan),
                Scalar::Float64(f64::INFINITY),
                Scalar::Null,
            ],
            vec![
                Scalar::from("b"),
                Scalar::from(""),
                Scalar::Null,
                Scalar::from("a"),
            ],
            vec![Scalar::Timestamp(5), Scalar::Null, Scalar::Timestamp(-5)],
        ];
        for values in columns {
            let col = Column::from_scalars(&values, None).unwrap();
            for a in 0..values.len() {
                for b in 0..values.len() {
                    let want = scalar_cmp(&values[a], &values[b]);
                    assert_eq!(
                        cell_cmp(&col, a, b),
                        want,
                        "{:?} vs {:?}",
                        values[a],
                        values[b]
                    );
                }
            }
        }
    }

    #[test]
    fn integers_above_2_pow_53_order_exactly() {
        // 2^53 + 1 and 2^53 are one f64; sort and MAX must still tell them apart.
        let big = 1i64 << 53;
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new("x", DataType::Int64),
                Field::new("ts", DataType::Timestamp),
            ]),
            vec![
                Column::from_i64(vec![big + 1, big]),
                Column::from_timestamps(vec![big, big + 1]),
            ],
        )
        .unwrap();
        let scan: Arc<dyn PhysicalOperator> = Arc::new(TableScanExec::new(Arc::new(t)));
        let first = |key: &str, asc: bool| {
            let sort = SortExec::new(scan.clone(), &[(key.to_string(), asc)]).unwrap();
            collect_table(&sort).unwrap().row(0).unwrap()
        };
        assert_eq!(first("x", true)[0], Scalar::Int64(big));
        assert_eq!(first("ts", false)[1], Scalar::Timestamp(big + 1));
        let agg = HashAggregateExec::new(
            scan,
            &[],
            &[
                AggSpec::new(AggFunc::Max, "x", "hi"),
                AggSpec::new(AggFunc::Min, "x", "lo"),
                AggSpec::new(AggFunc::Max, "ts", "latest"),
            ],
        )
        .unwrap();
        assert_eq!(
            collect_table(&agg).unwrap().row(0).unwrap(),
            vec![
                Scalar::Int64(big + 1),
                Scalar::Int64(big),
                Scalar::Timestamp(big + 1)
            ]
        );
        // Mixed numeric pairs keep the f64 order.
        let mixed = scalar_cmp(&Scalar::Int64(big + 1), &Scalar::Float64(big as f64));
        assert_eq!(mixed, Ordering::Equal);
    }
}
