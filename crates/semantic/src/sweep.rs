//! The one distinct pass and the one panel sweep behind every semantic
//! scan.
//!
//! "Dedup a UTF8 column, embed the distinct values into a panel, score a
//! stack of probe rows against it, keep what clears a floor" is the whole
//! computation behind the semantic filter and the semantic join. It lives
//! here once: [`Distinct`] is the dedup, [`sweep`] is the panel build plus
//! the scan. The filter passes one probe (its target), the join its left
//! distinct values; each probe row is scored independently of the rows
//! stacked beside it, so a stacked sweep's hits on a probe equal that
//! probe's own one-probe sweep, bit for bit.
//!
//! One arithmetic, at f32 bit-identical to the pairwise kernels under
//! one active SIMD path: both sides are normalized once, in place
//! ([`VectorArena::normalize`]; zero rows stay zero and score 0.0), then
//! every score is a bare dot (`dot_unrolled`) — the cosine. A filter's
//! scores therefore equal a join's on the same pair, bit for bit. At
//! `F32` one `dot_block_threshold` call per build tile scores the whole
//! probe span against it, two probes per register tile on x86, and keeps
//! only pairs clearing the floor; at `F16`/`Int8` the normalized candidate
//! panel is re-encoded as a [`QuantizedArena`], scored one probe row at a
//! time, and scores carry the tier's bounded error. Either way the result
//! is the [`Hit`] list at the floor: a filter's or join's epilogue
//! consumes only pairs that clear it.

use cx_embed::EmbeddingCache;
use cx_exec::parallel::parallel_map_ranges;
use cx_storage::{Chunk, Column, QueryContext, Result};
use cx_vector::block::{dot_block_threshold, TILE};
use cx_vector::{QuantTier, QuantizedArena, VectorArena};
use std::collections::HashMap;

/// The distinct valid values of a UTF8 column, with every row's value id.
#[derive(Default)]
pub struct Distinct<'a> {
    /// Distinct valid values, first-appearance order.
    pub values: Vec<&'a str>,
    /// Per input row (chunks back to back): its index into `values`,
    /// `None` for NULL — NULL never matches and never joins.
    pub row_ids: Vec<Option<u32>>,
    ids: HashMap<&'a str, u32>,
}

impl<'a> Distinct<'a> {
    /// The distinct pass over one column.
    pub fn of_column(col: &'a Column) -> Result<Self> {
        let mut out = Distinct::default();
        out.push(col)?;
        Ok(out)
    }

    /// The distinct pass over `column` of a materialized chunk stream.
    pub fn of_chunks(chunks: &'a [Chunk], column: usize) -> Result<Self> {
        let mut out = Distinct::default();
        for chunk in chunks {
            out.push(chunk.column(column)?)?;
        }
        Ok(out)
    }

    fn push(&mut self, col: &'a Column) -> Result<()> {
        let values = col.utf8_values()?;
        self.row_ids.reserve(values.len());
        for (row, v) in values.iter().enumerate() {
            let id = col.is_valid(row).then(|| {
                *self.ids.entry(v.as_str()).or_insert_with(|| {
                    self.values.push(v.as_str());
                    (self.values.len() - 1) as u32
                })
            });
            self.row_ids.push(id);
        }
        Ok(())
    }

    /// Row numbers per value id, ascending (the join's pair expansion).
    pub fn rows_per_value(&self) -> Vec<Vec<u32>> {
        let mut rows = vec![Vec::new(); self.values.len()];
        for (row, id) in self.row_ids.iter().enumerate() {
            if let Some(id) = id {
                rows[*id as usize].push(row as u32);
            }
        }
        rows
    }
}

/// One `(probe id, candidate id, score)` pair of a [`sweep`].
pub type Hit = (u32, u32, f32);

/// Scores every probe against every candidate at storage tier `tier` and
/// returns each pair scoring at or above `floor` (a filter's or join's
/// threshold), ordered by `(probe id,
/// candidate id)` whatever the tiling or worker count: embeds both sides
/// through `cache`, normalizes them in place, and streams probe rows over
/// cache-sized tiles of the candidate panel.
///
/// `workers > 1` fans contiguous probe spans out to scoped threads. `ctx`
/// is checked once per build tile (per probe row on quantized panels), so
/// a dead query overshoots by at most one tile.
pub fn sweep<C: AsRef<str>, P: AsRef<str>>(
    tier: QuantTier,
    cache: &EmbeddingCache,
    candidates: &[C],
    probes: &[P],
    floor: f32,
    workers: usize,
    ctx: &QueryContext,
) -> Result<Vec<Hit>> {
    let (p, c) = (probes.len(), candidates.len());
    if p == 0 || c == 0 {
        return Ok(Vec::new());
    }
    let _span = cx_obs::span_with("panel_sweep", || {
        format!(
            "tier={} probes={p} candidates={c} simd={}",
            tier.label(),
            cx_vector::simd::KernelDispatch::active().report()
        )
    });
    // Credited on the calling thread, before the fan-out: worker threads
    // carry no profile window.
    cx_obs::add_pairs((p * c) as u64);
    cx_obs::add_tiles(c.div_ceil(TILE) as u64);
    let mut cand = VectorArena::from_texts(cache, candidates);
    let mut prob = VectorArena::from_texts(cache, probes);
    ctx.check()?;
    cand.normalize();
    prob.normalize();
    let quantized = match tier {
        QuantTier::F32 => None,
        tier => Some(QuantizedArena::from_arena(&cand, tier)?),
    };

    // The f32 schedule: build-side tiles stay cache-resident while the
    // probe span streams over them, and the kernel emits straight from
    // registers. Quantized panels take one kernel call per probe row
    // through a reused row buffer; the f16/int8 panel moves 2–4× fewer
    // bytes than the f32 arena.
    let scan_span = |span: std::ops::Range<usize>| -> Result<Vec<Hit>> {
        let mut hits: Vec<Hit> = Vec::new();
        match &quantized {
            None => {
                let probes = prob.block(span.clone());
                for t0 in (0..c).step_by(TILE) {
                    ctx.check()?;
                    let tile = cand.block(t0..(t0 + TILE).min(c));
                    dot_block_threshold(probes, tile, floor, |i, r, score| {
                        hits.push(((span.start + i) as u32, (t0 + r) as u32, score))
                    });
                }
            }
            Some(cand) => {
                let mut row = vec![0.0f32; c];
                for i in span {
                    ctx.check()?;
                    cand.scores_into(prob.row(i), &mut row);
                    let above = row.iter().enumerate().filter(|(_, s)| **s >= floor);
                    hits.extend(above.map(|(j, &s)| (i as u32, j as u32, s)));
                }
            }
        }
        Ok(hits)
    };

    let mut hits = Vec::new();
    for part in parallel_map_ranges(p, workers, scan_span) {
        hits.extend(part?);
    }
    hits.sort_unstable_by_key(|&(i, j, _)| (i, j));
    Ok(hits)
}
