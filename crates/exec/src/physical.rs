//! The physical operator trait and execution helpers.

use cx_storage::{Chunk, QueryContext, Result, Schema, Table};
use std::sync::Arc;

/// A stream of chunks produced by one operator execution.
pub type ChunkStream = Box<dyn Iterator<Item = Result<Chunk>> + Send>;

/// A vectorized physical operator.
///
/// Operators form a tree via `Arc` children; [`execute`] may be called
/// repeatedly (each call re-runs the subtree). Chunk-at-a-time pull
/// execution keeps inner loops over contiguous columns.
///
/// [`execute`]: PhysicalOperator::execute
pub trait PhysicalOperator: Send + Sync {
    /// Operator name for EXPLAIN output.
    fn name(&self) -> String;

    /// Output schema.
    fn schema(&self) -> Arc<Schema>;

    /// Child operators (for plan rendering).
    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>>;

    /// Starts execution, returning the output chunk stream.
    fn execute(&self) -> Result<ChunkStream>;
}

/// Runs `op` to completion, returning all chunks.
///
/// This is the central materialization point, so it doubles as the
/// query-lifecycle choke point: each produced chunk is charged to the
/// ambient [`QueryContext`]'s memory budget and the context is checked
/// between chunks, bounding how far a dead query (deadline passed,
/// cancelled, over budget) can run past its sentence.
pub fn collect(op: &dyn PhysicalOperator) -> Result<Vec<Chunk>> {
    let ctx = QueryContext::current();
    let mut chunks = Vec::new();
    for chunk in op.execute()? {
        ctx.check()?;
        let chunk = chunk?;
        ctx.charge(chunk.memory_bytes());
        chunks.push(chunk);
    }
    ctx.check()?;
    Ok(chunks)
}

/// Runs `op` to completion into a [`Table`].
pub fn collect_table(op: &dyn PhysicalOperator) -> Result<Table> {
    let chunks = collect(op)?;
    Table::new(op.schema(), chunks)
}

/// Renders a physical operator tree, indented.
pub fn display_physical(op: &dyn PhysicalOperator) -> String {
    let mut out = String::new();
    fn walk(op: &dyn PhysicalOperator, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&op.name());
        out.push('\n');
        for child in op.children() {
            walk(child.as_ref(), out, depth + 1);
        }
    }
    walk(op, &mut out, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::TableScanExec;
    use cx_storage::{Column, Field, Schema};

    fn table() -> Table {
        Table::from_columns(
            Schema::new(vec![Field::new("x", cx_storage::DataType::Int64)]),
            vec![Column::from_i64(vec![1, 2, 3])],
        )
        .unwrap()
    }

    #[test]
    fn collect_roundtrip() {
        let scan = TableScanExec::new(Arc::new(table()));
        let out = collect_table(&scan).unwrap();
        assert_eq!(out.num_rows(), 3);
        // execute() can run twice.
        let out2 = collect_table(&scan).unwrap();
        assert_eq!(out2.num_rows(), 3);
    }

    #[test]
    fn display_tree() {
        let scan = TableScanExec::new(Arc::new(table()));
        let s = display_physical(&scan);
        assert!(s.starts_with("TableScan"));
    }
}
