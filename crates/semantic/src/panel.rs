//! Resident build panels: one normalized, cone-tiled panel per (table,
//! column, model), built on a top-k join's first use and shared by every
//! later statement over that column.
//!
//! A panel holds the column's distinct values, embedded and normalized
//! once, with rows reordered into cone tiles ([`ConeTiles`]), and a
//! value → row map. A statement maps its own distinct build values onto
//! panel rows (`ResidentPanel::candidates`), so rows its filters removed
//! weigh 0 and the panel never depends on a statement's predicates.
//!
//! Panels are keyed by table *identity*: an entry holds a `Weak<Table>`
//! (and a `Weak<EmbeddingCache>`), and a dead weak is a miss that is
//! purged on the next lookup. Re-registering a table creates a new
//! `Arc<Table>`, so a stale panel is never served, whatever the name.
//! Concurrent first uses of one key wait on the entry's lock and build
//! the panel once.

use crate::sweep::Distinct;
use cx_embed::EmbeddingCache;
use cx_storage::{Error, Result, Table};
use cx_vector::cone::ConeTiles;
use cx_vector::VectorArena;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// A base-table column: where a join's build key comes from when it
/// traces straight to a scan (through filters and plain-column
/// projections only).
#[derive(Clone)]
pub struct BaseColumn {
    /// The scanned table.
    pub table: Arc<Table>,
    /// The key column's index in the table.
    pub column: usize,
}

/// One column's distinct values as a cone-tiled, normalized panel.
pub struct ResidentPanel {
    /// Normalized rows, reordered tile by tile.
    pub(crate) arena: VectorArena,
    /// The cone tiles over `arena`.
    pub(crate) tiles: ConeTiles,
    /// Value → panel row.
    rows: HashMap<Box<str>, u32>,
}

impl ResidentPanel {
    fn build(source: &BaseColumn, cache: &EmbeddingCache) -> Result<Self> {
        let mut span = cx_obs::span("panel_build");
        let values = Distinct::of_chunks(source.table.chunks(), source.column)?.values;
        let mut arena = VectorArena::from_texts(cache, &values);
        arena.normalize();
        let (tiles, order) = ConeTiles::build(&mut arena);
        let rows = order.iter().enumerate();
        let rows = rows
            .map(|(row, &v)| (values[v as usize].into(), row as u32))
            .collect();
        if span.is_recording() {
            span.set_detail(format!("rows={} tiles={}", arena.len(), tiles.len()));
        }
        Ok(ResidentPanel { arena, tiles, rows })
    }

    /// This statement's view of the panel: per panel row, `(candidate id,
    /// weight)` where the candidate id indexes `values` and the weight is
    /// that value's row count `rows[id]`; rows whose value the statement
    /// does not hold weigh 0. The values come from the panel's own column
    /// through filters and plain projections, so each has a row; one that
    /// does not is an error, not a silently dropped candidate.
    pub(crate) fn candidates(&self, values: &[&str], rows: &[Vec<u32>]) -> Result<Vec<(u32, u64)>> {
        let mut out = vec![(0, 0); self.arena.len()];
        for (id, value) in values.iter().enumerate() {
            let row = self.rows.get(*value).ok_or_else(|| {
                Error::InvalidArgument(format!("value {value:?} is not in the resident panel"))
            })?;
            out[*row as usize] = (id as u32, rows[id].len() as u64);
        }
        Ok(out)
    }
}

/// One registry entry: a key and its (lazily built) panel.
struct Entry {
    table: Weak<Table>,
    column: usize,
    cache: Weak<EmbeddingCache>,
    panel: Arc<Mutex<Option<Arc<ResidentPanel>>>>,
}

/// Every update (a purge, a push) leaves the list valid, so a lock a
/// panicking thread poisoned is taken over as it is.
static RESIDENT: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// The resident panel of `source` under `cache`'s model, built on first
/// use.
pub(crate) fn resident(
    source: &BaseColumn,
    cache: &Arc<EmbeddingCache>,
) -> Result<Arc<ResidentPanel>> {
    let slot = {
        let mut entries = RESIDENT.lock().unwrap_or_else(PoisonError::into_inner);
        entries.retain(|e| e.table.strong_count() > 0 && e.cache.strong_count() > 0);
        let found = entries.iter().find(|e| {
            e.table.as_ptr() == Arc::as_ptr(&source.table)
                && e.column == source.column
                && e.cache.as_ptr() == Arc::as_ptr(cache)
        });
        match found {
            Some(e) => e.panel.clone(),
            None => {
                let panel = Arc::new(Mutex::new(None));
                entries.push(Entry {
                    table: Arc::downgrade(&source.table),
                    column: source.column,
                    cache: Arc::downgrade(cache),
                    panel: panel.clone(),
                });
                panel
            }
        }
    };
    // A build that panicked left the slot empty: the next use builds.
    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(panel) = slot.as_ref() {
        return Ok(panel.clone());
    }
    let panel = Arc::new(ResidentPanel::build(source, cache)?);
    *slot = Some(panel.clone());
    Ok(panel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::HashNGramModel;
    use cx_storage::{Column, DataType, Field, Schema};

    fn source(values: &[&str]) -> BaseColumn {
        let table = Table::from_columns(
            Schema::new(vec![Field::new("v", DataType::Utf8)]),
            vec![Column::from_strings(values.iter().copied())],
        )
        .unwrap();
        BaseColumn {
            table: Arc::new(table),
            column: 0,
        }
    }

    #[test]
    fn concurrent_first_uses_build_one_panel() {
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(5))));
        let words: Vec<String> = (0..300).map(|i| format!("w{i} x{}", i % 7)).collect();
        let src = source(&words.iter().map(String::as_str).collect::<Vec<_>>());
        let panels: Vec<Arc<ResidentPanel>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| resident(&src, &cache).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(panels.iter().all(|p| Arc::ptr_eq(p, &panels[0])));
        // Each distinct value was embedded once.
        assert_eq!(cache.model().stats().invocations(), 300);
        // Every value maps to the panel row holding its embedding.
        let view = panels[0]
            .candidates(&["w5 x5", "w9 x2"], &[vec![0, 1], vec![2]])
            .unwrap();
        let weighted: Vec<usize> = (0..view.len()).filter(|&r| view[r].1 > 0).collect();
        assert_eq!(weighted.len(), 2);
        assert!(
            weighted.iter().any(|&r| view[r] == (0, 2))
                && weighted.iter().any(|&r| view[r] == (1, 1))
        );
        // A value outside the column has no row.
        assert!(panels[0].candidates(&["absent"], &[vec![0]]).is_err());
    }

    #[test]
    fn a_new_table_is_a_new_panel() {
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(5))));
        let (a, b) = (source(&["boots", "parka"]), source(&["boots", "parka"]));
        let pa = resident(&a, &cache).unwrap();
        assert!(Arc::ptr_eq(&pa, &resident(&a, &cache).unwrap()));
        assert!(!Arc::ptr_eq(&pa, &resident(&b, &cache).unwrap()));
        // So is a new model cache over the same table.
        let other = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(5))));
        assert!(!Arc::ptr_eq(&pa, &resident(&a, &other).unwrap()));
    }
}
