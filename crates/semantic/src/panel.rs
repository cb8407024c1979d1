//! Resident panels: one normalized panel per (table, column, model),
//! built on the first semantic filter's or top-k join's use and shared by
//! every later statement over that column.
//!
//! A panel holds the column's distinct values, embedded and normalized
//! once, and a value → row map. A semantic filter scores its target
//! against every row ([`crate::sweep`]) and passes a row iff its value's
//! panel row matched (`ResidentPanel::passing`). A top-k join maps its own
//! distinct build values onto panel rows (`ResidentPanel::candidates`), so
//! rows its filters removed weigh 0 and the panel never depends on a
//! statement's predicates.
//!
//! Cone tiles ([`ConeTiles`]) cost far more than the rest of a build and
//! only a top-k join reads them, so a panel is built untiled and gains
//! tiles on the first top-k join over it: that join builds a tiled copy
//! (rows reordered tile by tile, the row map remapped) and the copy
//! replaces the untiled panel, which statements in flight keep.
//!
//! Panels are keyed by table *identity*: an entry holds a `Weak<Table>`
//! (and a `Weak<EmbeddingCache>`), and a dead weak is a miss that is
//! purged on the next lookup. Re-registering a table creates a new
//! `Arc<Table>`, so a stale panel is never served, whatever the name.
//! Concurrent first uses of one key wait on the entry's lock and build
//! the panel (or its tiles) once.

use crate::sweep::Distinct;
use cx_embed::EmbeddingCache;
use cx_storage::{Bitmap, Column, Error, Result, Table};
use cx_vector::cone::ConeTiles;
use cx_vector::VectorArena;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// A base-table column: where a semantic filter's column or a join's
/// build key comes from when it traces straight to a scan (through
/// filters and plain-column projections only).
#[derive(Clone)]
pub struct BaseColumn {
    /// The scanned table.
    pub table: Arc<Table>,
    /// The column's index in the table.
    pub column: usize,
}

/// One column's distinct values as a normalized panel.
#[derive(Clone)]
pub struct ResidentPanel {
    /// Normalized rows; reordered tile by tile once tiled.
    pub(crate) arena: VectorArena,
    /// The cone tiles over `arena`, built on a top-k join's first use.
    pub(crate) tiles: Option<ConeTiles>,
    /// Value → panel row.
    rows: HashMap<Box<str>, u32>,
}

impl ResidentPanel {
    fn build(source: &BaseColumn, cache: &EmbeddingCache) -> Result<Self> {
        let values = Distinct::of_chunks(source.table.chunks(), source.column)?.values;
        let mut arena = VectorArena::from_texts(cache, &values);
        arena.normalize();
        let rows = values.iter().enumerate();
        let rows = rows.map(|(row, &v)| (v.into(), row as u32)).collect();
        Ok(ResidentPanel {
            arena,
            tiles: None,
            rows,
        })
    }

    /// Cuts the rows into cone tiles, reordering them tile by tile.
    fn tile(&mut self) {
        let (tiles, order) = ConeTiles::build(&mut self.arena);
        let mut moved = vec![0u32; order.len()];
        for (new, &old) in order.iter().enumerate() {
            moved[old as usize] = new as u32;
        }
        self.rows.values_mut().for_each(|r| *r = moved[*r as usize]);
        self.tiles = Some(tiles);
    }

    /// The panel row holding `value`. Values come from the panel's own
    /// column through filters and plain projections, so each has a row;
    /// one that does not is an error, not a silently dropped value.
    fn row(&self, value: &str) -> Result<usize> {
        match self.rows.get(value) {
            Some(&row) => Ok(row as usize),
            None => Err(Error::InvalidArgument(format!(
                "value {value:?} is not in the resident panel"
            ))),
        }
    }

    /// Which rows of `col` pass a semantic filter whose per-panel-row
    /// matches are `matched`: a row passes iff it is valid and its
    /// value's panel row matched, so NULL never matches.
    pub(crate) fn passing(&self, col: &Column, matched: &Bitmap) -> Result<Bitmap> {
        let values = col.utf8_values()?;
        let mut out = Bitmap::new(values.len(), false);
        for (i, value) in values.iter().enumerate() {
            if col.is_valid(i) && matched.get(self.row(value)?) {
                out.set(i, true);
            }
        }
        Ok(out)
    }

    /// This statement's view of the panel: per panel row, `(candidate id,
    /// weight)` where the candidate id indexes `values` and the weight is
    /// that value's row count `rows[id]`; rows whose value the statement
    /// does not hold weigh 0.
    pub(crate) fn candidates(&self, values: &[&str], rows: &[Vec<u32>]) -> Result<Vec<(u32, u64)>> {
        let mut out = vec![(0, 0); self.arena.len()];
        for (id, value) in values.iter().enumerate() {
            out[self.row(value)?] = (id as u32, rows[id].len() as u64);
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
/// use; with cone tiles if `tiled` (a top-k join), built on the first such
/// use.
pub(crate) fn resident(
    source: &BaseColumn,
    cache: &Arc<EmbeddingCache>,
    tiled: bool,
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
    // A build that panicked left the slot as it was: the next use builds.
    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(panel) = slot.as_ref().filter(|p| p.tiles.is_some() || !tiled) {
        return Ok(panel.clone());
    }
    let mut span = cx_obs::span("panel_build");
    let mut panel = match slot.as_ref() {
        // Tiling reorders rows, so statements holding the untiled panel
        // keep it and the tiled copy replaces it.
        Some(untiled) => ResidentPanel::clone(untiled),
        None => ResidentPanel::build(source, cache)?,
    };
    if tiled {
        panel.tile();
    }
    if span.is_recording() {
        let tiles = panel.tiles.as_ref().map_or(0, ConeTiles::len);
        span.set_detail(format!("rows={} tiles={tiles}", panel.arena.len()));
    }
    let panel = Arc::new(panel);
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
                .map(|_| s.spawn(|| resident(&src, &cache, true).unwrap()))
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
    fn tiles_come_with_the_first_top_k_use() {
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(5))));
        let words: Vec<String> = (0..300).map(|i| format!("w{i} x{}", i % 7)).collect();
        let values: Vec<&str> = words.iter().map(String::as_str).collect();
        let src = source(&values);
        let untiled = resident(&src, &cache, false).unwrap();
        assert!(untiled.tiles.is_none());
        assert!(Arc::ptr_eq(
            &untiled,
            &resident(&src, &cache, false).unwrap()
        ));
        // A top-k use tiles a copy, which replaces the untiled panel for
        // every later use; the holder of the untiled panel keeps it.
        let tiled = resident(&src, &cache, true).unwrap();
        assert!(tiled.tiles.as_ref().is_some_and(|t| t.len() > 1));
        assert!(untiled.tiles.is_none());
        assert!(Arc::ptr_eq(&tiled, &resident(&src, &cache, false).unwrap()));
        assert_eq!(cache.model().stats().invocations(), 300);
        // Each value's row moved with its embedding.
        for v in values {
            let (a, b) = (untiled.row(v).unwrap(), tiled.row(v).unwrap());
            assert_eq!(untiled.arena.row(a), tiled.arena.row(b), "{v}");
        }
    }

    #[test]
    fn a_new_table_is_a_new_panel() {
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(5))));
        let (a, b) = (source(&["boots", "parka"]), source(&["boots", "parka"]));
        let pa = resident(&a, &cache, false).unwrap();
        assert!(Arc::ptr_eq(&pa, &resident(&a, &cache, false).unwrap()));
        assert!(!Arc::ptr_eq(&pa, &resident(&b, &cache, false).unwrap()));
        // So is a new model cache over the same table.
        let other = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(5))));
        assert!(!Arc::ptr_eq(&pa, &resident(&a, &other, false).unwrap()));
    }
}
