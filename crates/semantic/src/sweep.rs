//! The one distinct pass and the one panel sweep behind every semantic
//! scan.
//!
//! "Dedup a UTF8 column, embed the distinct values into a panel, score a
//! stack of probe rows against it, keep what clears a floor" is the whole
//! computation behind the semantic filter, the blocked semantic join and
//! `cx_mqo`'s shared scan. It lives here once: [`Distinct`] is the dedup,
//! [`sweep`] is the panel build plus the scan. A solo operator is the
//! one-member case of the shared sweep — the filter passes one probe (its
//! target), the join its left distinct values, a shared scan the stacked
//! probes of every member — so shared ≡ solo holds because both call this
//! function, not because two copies agree.
//!
//! Arithmetic per [`ScanKind`] (see [`cx_exec::shared`]), at f32
//! bit-identical to the pairwise kernels under one active SIMD path:
//!
//! * `CosineFilter` — raw rows with cached norms,
//!   `dot / (probe_norm * candidate_norm)`, zero norms scoring 0.0
//!   (`cosine_with_norms`); f32 only, since a filter's few probes can
//!   never amortize quantizing a panel. Returns [`Scores::Dense`].
//! * `DotJoin` — both sides normalized once, then bare dots
//!   (`dot_unrolled`); at `F16`/`Int8` the normalized candidate panel is
//!   re-encoded as a [`QuantizedArena`] and scores carry the tier's
//!   bounded error. Returns [`Scores::Hits`].

use cx_embed::EmbeddingCache;
use cx_exec::parallel::parallel_map_ranges;
use cx_exec::shared::ScanKind;
use cx_storage::{Chunk, Column, Error, QueryContext, Result};
use cx_vector::block::{cosine_block_threshold, dot_block_threshold, TILE};
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

    /// The id of `value`, if some valid row held it.
    pub fn id_of(&self, value: &str) -> Option<u32> {
        self.ids.get(value).copied()
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

/// One `(probe id, candidate id, score)` pair of a [`Scores::Hits`] sweep.
pub type Hit = (u32, u32, f32);

/// What a [`sweep`] returns, shaped per scan kind.
///
/// Filters bring one probe row per query and every query needs its whole
/// row, so the `probes × candidates` tile is small — dense is right.
/// Joins stack *many* probe rows and their epilogues consume only
/// above-threshold pairs; a dense tile would turn a compute-bound sweep
/// into a memory-bound one, so only pairs clearing the floor are kept.
#[derive(Debug, Clone, PartialEq)]
pub enum Scores {
    /// `CosineFilter`: row-major `probes × candidates` scores.
    Dense(Vec<f32>),
    /// `DotJoin`: every pair scoring at or above the floor, ordered by
    /// `(probe id, candidate id)` whatever the tiling or worker count.
    Hits(Vec<Hit>),
}

/// Scores every probe against every candidate with `kind`'s arithmetic at
/// storage tier `tier`: embeds both sides through `cache`, builds the
/// panel once, and streams probe rows over cache-sized tiles of it.
///
/// `floor` compacts [`Scores::Hits`] (a join's threshold, or a group's
/// lowest); dense scores are returned whole. `workers > 1` fans contiguous
/// probe spans out to scoped threads. `ctx` is checked once per build tile
/// (per probe row on quantized panels), so a dead query overshoots by at
/// most one tile.
#[allow(clippy::too_many_arguments)]
pub fn sweep<C: AsRef<str>, P: AsRef<str>>(
    kind: ScanKind,
    tier: QuantTier,
    cache: &EmbeddingCache,
    candidates: &[C],
    probes: &[P],
    floor: f32,
    workers: usize,
    ctx: &QueryContext,
) -> Result<Scores> {
    let (p, c) = (probes.len(), candidates.len());
    let mut out = match kind {
        ScanKind::CosineFilter => Scores::Dense(Vec::new()),
        ScanKind::DotJoin => Scores::Hits(Vec::new()),
    };
    if p == 0 || c == 0 {
        return Ok(out);
    }
    let _span = cx_obs::span_with("panel_sweep", || {
        format!(
            "kind={} tier={} probes={p} candidates={c} simd={}",
            kind.label(),
            tier.label(),
            cx_vector::simd::KernelDispatch::active().report()
        )
    });
    // Credited on the calling thread (a shared sweep's group leader),
    // before the fan-out: worker threads carry no profile window.
    cx_obs::add_pairs((p * c) as u64);
    cx_obs::add_tiles(1);
    let cand = VectorArena::from_texts(cache, candidates);
    let prob = VectorArena::from_texts(cache, probes);
    ctx.check()?;

    enum Panel {
        Cosine(VectorArena),
        Dot(VectorArena),
        Quantized(QuantizedArena),
    }
    let (prob, panel) = match (kind, tier) {
        (ScanKind::CosineFilter, QuantTier::F32) => (prob, Panel::Cosine(cand)),
        (ScanKind::CosineFilter, tier) => {
            return Err(Error::InvalidArgument(format!(
                "cosine-filter sweeps are f32-only, got tier {}",
                tier.label()
            )))
        }
        (ScanKind::DotJoin, QuantTier::F32) => (prob.normalized(), Panel::Dot(cand.normalized())),
        (ScanKind::DotJoin, tier) => (
            prob.normalized(),
            Panel::Quantized(QuantizedArena::from_arena(&cand.normalized(), tier)?),
        ),
    };

    // The f32 arms keep one schedule: build-side tiles stay cache-resident
    // while the probe span streams over them, and the kernels emit
    // straight from registers.
    let scan_span = |span: std::ops::Range<usize>| -> Result<Scores> {
        Ok(match &panel {
            Panel::Cosine(cand) => {
                let mut dense = vec![0.0f32; span.len() * c];
                for t0 in (0..c).step_by(TILE) {
                    ctx.check()?;
                    let tile = cand.block(t0..(t0 + TILE).min(c));
                    for i in span.clone() {
                        let row = &mut dense[(i - span.start) * c + t0..];
                        cosine_block_threshold(
                            prob.row(i),
                            prob.row_norm(i),
                            tile.data,
                            tile.stride,
                            tile.norms,
                            f32::NEG_INFINITY,
                            |r, score| row[r] = score,
                        );
                    }
                }
                Scores::Dense(dense)
            }
            Panel::Dot(cand) => {
                let mut hits: Vec<Hit> = Vec::new();
                for t0 in (0..c).step_by(TILE) {
                    ctx.check()?;
                    let tile = cand.block(t0..(t0 + TILE).min(c));
                    for i in span.clone() {
                        dot_block_threshold(
                            prob.row(i),
                            tile.data,
                            tile.stride,
                            tile.rows,
                            floor,
                            |r, score| hits.push((i as u32, (t0 + r) as u32, score)),
                        );
                    }
                }
                Scores::Hits(hits)
            }
            // One quantized-panel kernel call per probe row through a
            // reused row buffer; the f16/int8 panel moves 2–4× fewer
            // bytes than the f32 arena.
            Panel::Quantized(cand) => {
                let mut hits: Vec<Hit> = Vec::new();
                let mut row = vec![0.0f32; c];
                for i in span {
                    ctx.check()?;
                    cand.scores_into(prob.row(i), &mut row);
                    let above = row.iter().enumerate().filter(|(_, s)| **s >= floor);
                    hits.extend(above.map(|(j, &s)| (i as u32, j as u32, s)));
                }
                Scores::Hits(hits)
            }
        })
    };

    for part in parallel_map_ranges(p, workers, scan_span) {
        match (&mut out, part?) {
            (Scores::Dense(all), Scores::Dense(rows)) => all.extend(rows),
            (Scores::Hits(all), Scores::Hits(hits)) => all.extend(hits),
            _ => unreachable!("a sweep's spans all score one kind"),
        }
    }
    if let Scores::Hits(hits) = &mut out {
        hits.sort_unstable_by_key(|&(i, j, _)| (i, j));
    }
    Ok(out)
}
