//! The one distinct pass and the one panel sweep behind every semantic
//! scan.
//!
//! "Dedup a UTF8 column, embed the distinct values into a panel, score a
//! stack of probe rows against it, keep what clears a floor" is the whole
//! computation behind the semantic filter and the semantic join. It lives
//! here once: [`Distinct`] is the dedup, [`sweep`] is the panel build plus
//! the scan. `GROUP BY SEMANTIC` and Figure 3's consolidation cluster
//! distinct values with [`cluster`] (each value one probe against the
//! fixed leaders so far), and the optimizer's sampling probes count
//! matches with `count_matches`, over the same tile loop. The filter passes one probe (its target), the join its left
//! distinct values; each probe row is scored independently of the rows
//! stacked beside it, so a stacked sweep's hits on a probe equal that
//! probe's own one-probe sweep, bit for bit.
//!
//! One arithmetic, f32 and bit-identical to the pairwise kernels under
//! one active SIMD path: both sides are normalized once, in place
//! ([`VectorArena::normalize`]; zero rows stay zero and score 0.0), then
//! every score is a bare dot (`dot_unrolled`) — the cosine. A filter's
//! scores therefore equal a join's on the same pair, bit for bit. One
//! `dot_block_threshold` call per build tile scores the whole probe span
//! against it, two probes per register tile on x86, and keeps only pairs
//! clearing the floor: the result is the [`Hit`] list at the floor, and a
//! filter's or join's epilogue consumes only pairs that clear it.
//!
//! Over a base-table column's resident panel ([`crate::panel`]) the
//! panel is already built. A semantic filter takes `sweep_panel`: its
//! target against every panel row, once per statement, one match bit per
//! row. A top-k join (`ORDER BY similarity DESC … LIMIT k`) takes
//! `sweep_top_k`: the same kernel and arithmetic over the panel's cone
//! tiles, scoring only the tiles that can still reach the k-th best
//! score. Every sweep runs inside the one `panel_sweep` span, whose
//! detail reports the `(probe, tile)` cells visited out of all of them
//! and the pairs scored; the statement profile credits only the pairs
//! scored.

use crate::panel::ResidentPanel;
use cx_embed::EmbeddingCache;
use cx_exec::parallel::parallel_map_ranges;
use cx_storage::{Bitmap, Chunk, Column, QueryContext, Result};
use cx_vector::block::{dot_block_threshold, TILE};
use cx_vector::cone::ConeTiles;
use cx_vector::{RowBlock, VectorArena};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

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

    /// The distinct pass over a list of (non-NULL) values.
    pub fn of_values(values: &[&'a str]) -> Self {
        let mut out = Distinct::default();
        out.extend(values.iter().map(|&v| Some(v)));
        out
    }

    fn push(&mut self, col: &'a Column) -> Result<()> {
        let values = col.utf8_values()?;
        self.row_ids.reserve(values.len());
        let valid = |(row, v): (usize, &'a String)| col.is_valid(row).then_some(v.as_str());
        self.extend(values.iter().enumerate().map(valid));
        Ok(())
    }

    fn extend(&mut self, rows: impl Iterator<Item = Option<&'a str>>) {
        for v in rows {
            let id = v.map(|v| {
                *self.ids.entry(v).or_insert_with(|| {
                    self.values.push(v);
                    (self.values.len() - 1) as u32
                })
            });
            self.row_ids.push(id);
        }
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

/// What one sweep scored, for its span and the statement profile.
#[derive(Default)]
struct Tally {
    /// `(probe, build tile)` cells scored.
    visited: u64,
    /// `(probe, build tile)` cells in all.
    cells: u64,
    /// Probe × candidate pairs the kernels scored.
    scored: u64,
    /// Distinct build tiles touched.
    tiles: u64,
}

impl Tally {
    /// A full sweep's tally: every probe against every build tile.
    fn full(p: usize, c: usize) -> Self {
        let tiles = c.div_ceil(TILE) as u64;
        let cells = p as u64 * tiles;
        Tally {
            visited: cells,
            cells,
            scored: (p * c) as u64,
            tiles,
        }
    }
}

/// Runs one sweep inside the one `panel_sweep` span and credits what it
/// scored to the statement profile.
fn swept<T>((p, c): (usize, usize), body: impl FnOnce() -> Result<(T, Tally)>) -> Result<T> {
    let mut span = cx_obs::span("panel_sweep");
    let (hits, tally) = body()?;
    // Credited on the calling thread, after the fan-out: worker threads
    // carry no profile window.
    cx_obs::add_pairs(tally.scored);
    cx_obs::add_tiles(tally.tiles);
    if span.is_recording() {
        span.set_detail(format!(
            "probes={p} candidates={c} tiles={}/{} scored={} simd={}",
            tally.visited,
            tally.cells,
            tally.scored,
            cx_vector::simd::KernelDispatch::active().report()
        ));
    }
    Ok(hits)
}

/// Embeds `texts` through `cache` into a normalized panel.
fn unit_panel<S: AsRef<str>>(cache: &EmbeddingCache, texts: &[S]) -> VectorArena {
    let mut arena = VectorArena::from_texts(cache, texts);
    arena.normalize();
    arena
}

/// Scores every probe against every candidate and returns each pair
/// scoring at or above `floor` (a filter's or join's threshold), ordered
/// by `(probe id, candidate id)` whatever the tiling or worker count:
/// embeds both sides through `cache`, normalizes them in place, and
/// streams probe spans over cache-sized tiles of the candidate panel.
///
/// `workers > 1` fans contiguous probe spans out to scoped threads. `ctx`
/// is checked once per build tile, so a dead query overshoots by at most
/// one tile.
pub fn sweep<C: AsRef<str>, P: AsRef<str>>(
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
    swept((p, c), || {
        let cand = unit_panel(cache, candidates);
        let prob = unit_panel(cache, probes);
        ctx.check()?;

        let scan_span = |span: Range<usize>| -> Result<Vec<Hit>> {
            let mut hits: Vec<Hit> = Vec::new();
            scan(
                prob.block(span.clone()),
                &cand,
                floor,
                ctx,
                |i, r, score| hits.push(((span.start + i) as u32, r as u32, score)),
            )?;
            Ok(hits)
        };

        let mut hits = Vec::new();
        for part in parallel_map_ranges(p, workers, scan_span) {
            hits.extend(part?);
        }
        hits.sort_unstable_by_key(|&(i, j, _)| (i, j));
        Ok((hits, Tally::full(p, c)))
    })
}

/// Streams `probes` over cache-sized tiles of `panel` and emits each
/// `(probe, panel row, score)` at or above `floor`. Build-side tiles stay
/// cache-resident while the probes stream over them, and the kernel emits
/// straight from registers. `ctx` is checked once per tile.
fn scan(
    probes: RowBlock<'_>,
    panel: &VectorArena,
    floor: f32,
    ctx: &QueryContext,
    mut emit: impl FnMut(usize, usize, f32),
) -> Result<()> {
    let c = panel.len();
    for t0 in (0..c).step_by(TILE) {
        ctx.check()?;
        let tile = panel.block(t0..(t0 + TILE).min(c));
        dot_block_threshold(probes, tile, floor, |i, r, score| emit(i, t0 + r, score));
    }
    Ok(())
}

/// The pairs of `probes` × `candidates` scoring at or above `floor`,
/// counted over [`sweep`]'s tile loop and arithmetic, bit for bit, but
/// outside any span and the statement profile: the optimizer's sampling
/// probes are planning, not a statement's scan.
pub(crate) fn count_matches(
    cache: &EmbeddingCache,
    candidates: &[&str],
    probes: &[&str],
    floor: f32,
) -> usize {
    if probes.is_empty() || candidates.is_empty() {
        return 0;
    }
    let (prob, cand) = (unit_panel(cache, probes), unit_panel(cache, candidates));
    let mut matches = 0;
    let ctx = QueryContext::default();
    scan(prob.as_block(), &cand, floor, &ctx, |_, _, _| matches += 1)
        .expect("a default context never stops a scan");
    matches
}

/// A one-pass clustering of distinct values: per value its cluster, per
/// cluster its leader.
pub struct Clusters {
    /// Per value, its cluster id.
    pub of_value: Vec<u32>,
    /// Per cluster, in founding order, the value id of its leader (its
    /// first value).
    pub leaders: Vec<u32>,
}

/// Clusters distinct `values` in one pass, in their order (first
/// appearance): each value scores against every cluster's leader and
/// joins the best-scoring cluster at or above `floor`, the lowest cluster
/// id among ties; a value that clears no leader founds a cluster and
/// leads it. Leaders are fixed, so a value's cluster depends only on the
/// values before it, never on how often they occur.
///
/// The values are embedded and normalized once; each is a one-probe
/// scan of the growing leader panel, so every score is [`sweep`]'s on the
/// same pair, bit for bit. `ctx` is checked once per leader tile.
pub fn cluster<S: AsRef<str>>(
    cache: &EmbeddingCache,
    values: &[S],
    floor: f32,
    ctx: &QueryContext,
) -> Result<Clusters> {
    let units = unit_panel(cache, values);
    let mut leader_rows = VectorArena::new(units.dim());
    let mut out = Clusters {
        of_value: Vec::with_capacity(values.len()),
        leaders: Vec::new(),
    };
    for v in 0..units.len() {
        let mut best: Option<(f32, usize)> = None;
        scan(
            units.block(v..v + 1),
            &leader_rows,
            floor,
            ctx,
            |_, c, s| {
                if best.is_none_or(|(b, bc)| s > b || (s == b && c < bc)) {
                    best = Some((s, c));
                }
            },
        )?;
        let id = match best {
            Some((_, c)) => c,
            None => {
                out.leaders.push(v as u32);
                leader_rows.push(units.row(v))
            }
        };
        out.of_value.push(id as u32);
    }
    Ok(out)
}

/// A semantic filter's sweep over its column's resident panel: scores
/// `target`, the one probe, against every panel row and returns which rows
/// score at or above `floor`, one bit per panel row. The scores are
/// [`sweep`]'s on the same pairs, bit for bit.
pub(crate) fn sweep_panel(
    cache: &EmbeddingCache,
    panel: &ResidentPanel,
    target: &str,
    floor: f32,
    ctx: &QueryContext,
) -> Result<Bitmap> {
    let c = panel.arena.len();
    let mut matched = Bitmap::new(c, false);
    if c == 0 {
        return Ok(matched);
    }
    swept((1, c), || {
        let prob = unit_panel(cache, &[target]);
        scan(prob.block(0..1), &panel.arena, floor, ctx, |_, r, _| {
            matched.set(r, true)
        })?;
        Ok((matched, Tally::full(1, c)))
    })
}

/// The build side of a [`sweep_top_k`]: a resident cone-tiled panel and
/// this statement's view of it.
pub(crate) struct RankedBuild<'a> {
    /// The resident panel.
    pub panel: &'a ResidentPanel,
    /// Its cone tiles.
    pub tiles: &'a ConeTiles,
    /// Per panel row, `(candidate id, weight)`: the weight is the number
    /// of build rows holding the value, 0 where the statement holds none.
    pub candidates: &'a [(u32, u64)],
    /// Per probe, the number of probe-side rows holding it.
    pub probe_weights: &'a [u64],
    /// Output rows the statement keeps.
    pub k: usize,
}

/// A top-k join's sweep: every probe-candidate pair that can be
/// among the `k` best output rows ordered by score, descending, with
/// scores bit-identical to [`sweep`]'s; hits ordered by `(probe id,
/// candidate id)`.
///
/// The floor is `max(floor, k-th best row-weighted score)`: a pair of
/// weight `w` (probe rows × candidate rows) stands for `w` output rows,
/// so once scored pairs of total weight ≥ k clear a score, no pair below
/// it can reach the top k. Pairs that tie the floor are kept, so the
/// epilogue's exact top-k and its tie-break see every pair they would
/// have seen after a full sweep.
///
/// Each probe is bounded against every tile in one probes × centroids
/// kernel pass ([`ConeTiles::bound`]). Each probe's best-bound tile (the
/// nearest centroid among ties) is scored first, which seeds the floor;
/// then every other cell whose bound reaches the floor, tile by tile in
/// descending order of their best bound, each tile read once for all the
/// probes it serves, and each cell checked against the floor as it stands
/// when its tile comes up. Workers share the floor through one atomic.
/// `ctx` is checked once per scored tile.
pub(crate) fn sweep_top_k<P: AsRef<str>>(
    cache: &EmbeddingCache,
    top: RankedBuild<'_>,
    probes: &[P],
    floor: f32,
    workers: usize,
    ctx: &QueryContext,
) -> Result<Vec<Hit>> {
    let (p, c) = (probes.len(), top.candidates.len());
    if p == 0 || c == 0 || top.k == 0 {
        return Ok(Vec::new());
    }
    swept((p, c), || {
        let prob = unit_panel(cache, probes);
        ctx.check()?;
        // Scores are at least θ ≥ 0 once offered, so the bits of a
        // non-negative f32 order like the value.
        let shared = AtomicU32::new(floor_bits(floor));
        let parts = parallel_map_ranges(p, workers, |span| {
            let mut scan = TileScan::bound(&top, &prob, span, &shared);
            scan.seed(ctx)?;
            scan.rest(ctx)?;
            Ok(scan)
        });
        let scans = parts.into_iter().collect::<Result<Vec<_>>>()?;
        // Drop the pairs scored before the floor reached its final height.
        let floor = f32::from_bits(shared.load(Ordering::Relaxed));
        let tiles = top.tiles.len();
        let (mut hits, mut touched) = (Vec::new(), vec![false; tiles]);
        let mut tally = Tally {
            cells: (p * tiles) as u64,
            ..Tally::default()
        };
        for scan in scans {
            hits.extend(scan.hits.into_iter().filter(|h| h.2 >= floor));
            tally.visited += scan.visited;
            tally.scored += scan.scored;
            touched
                .iter_mut()
                .zip(scan.touched)
                .for_each(|(a, b)| *a |= b);
        }
        tally.tiles = touched.iter().filter(|&&x| x).count() as u64;
        hits.sort_unstable_by_key(|&(i, j, _)| (i, j));
        Ok((hits, tally))
    })
}

impl<'a, 't> TileScan<'a, 't> {
    /// A worker's scan of the probes of `span`, with the bounds of every
    /// (probe, tile) cell from one kernel pass of the span's probes
    /// against the tile centroids. A NaN score is never emitted, and the
    /// 1.0 it leaves behind bounds nothing.
    fn bound(
        top: &'a RankedBuild<'t>,
        prob: &'a VectorArena,
        span: Range<usize>,
        shared: &'a AtomicU32,
    ) -> Self {
        let tiles = top.tiles;
        let t = tiles.len();
        let mut bounds = vec![1.0f32; span.len() * t];
        let floorless = f32::NEG_INFINITY;
        dot_block_threshold(
            prob.block(span.clone()),
            tiles.centroids(),
            floorless,
            |i, j, s| bounds[i * t + j] = s,
        );
        // Each probe's seed: its best-bound tile, the nearest centroid
        // among ties (a probe inside several cones bounds them all at 1).
        let mut seeds = Vec::with_capacity(span.len());
        for row in bounds.chunks_exact_mut(t) {
            let mut seed = (f32::NEG_INFINITY, f32::NEG_INFINITY, 0);
            for (j, b) in row.iter_mut().enumerate() {
                let cos = *b;
                *b = tiles.bound(j, cos);
                if (*b, cos) > (seed.0, seed.1) {
                    seed = (*b, cos, j);
                }
            }
            seeds.push(seed.2 as u32);
        }
        TileScan {
            top,
            prob,
            first: span.start,
            bounds,
            seeds,
            best: Weighted::new(top.k as u64, shared),
            hits: Vec::new(),
            visited: 0,
            scored: 0,
            touched: vec![false; t],
            gathered: Vec::new(),
        }
    }

    /// Scores each probe's best-bound tile, which seeds the floor.
    fn seed(&mut self, ctx: &QueryContext) -> Result<()> {
        let t = self.touched.len();
        let mut cells: Vec<Cell> = Vec::with_capacity(self.bounds.len() / t);
        for (i, row) in self.bounds.chunks_exact_mut(t).enumerate() {
            let j = self.seeds[i] as usize;
            cells.push((row[j], j as u32, i as u32));
            row[j] = f32::NEG_INFINITY;
        }
        self.visit(&cells, ctx)
    }

    /// Scores every other cell whose bound reaches the floor.
    fn rest(&mut self, ctx: &QueryContext) -> Result<()> {
        let (t, floor) = (self.touched.len(), self.best.floor());
        let mut cells: Vec<Cell> = Vec::new();
        for (i, row) in self.bounds.chunks_exact(t).enumerate() {
            let live = row.iter().enumerate().filter(|x| *x.1 >= floor);
            cells.extend(live.map(|(j, &b)| (b, j as u32, i as u32)));
        }
        self.visit(&cells, ctx)
    }
}

/// A `(bound, tile, probe)` cell of a top-k sweep; probes count from the
/// worker's first.
type Cell = (f32, u32, u32);

/// One worker's scoring state in [`sweep_top_k`].
struct TileScan<'a, 't> {
    top: &'a RankedBuild<'t>,
    prob: &'a VectorArena,
    first: usize,
    /// `(probe, tile)` bounds, probe-major; a visited seed reads -inf.
    bounds: Vec<f32>,
    /// Each probe's seed tile.
    seeds: Vec<u32>,
    best: Weighted<'a>,
    hits: Vec<Hit>,
    visited: u64,
    scored: u64,
    touched: Vec<bool>,
    /// The probe rows of one tile's visit, gathered into one block.
    gathered: Vec<f32>,
}

impl TileScan<'_, '_> {
    /// Scores `cells` tile by tile, tiles in descending order of their
    /// best bound, each against the probes whose bound still reaches the
    /// floor, gathered into one probe block: a tile is read once per
    /// visit, however many probes it serves.
    fn visit(&mut self, cells: &[Cell], ctx: &QueryContext) -> Result<()> {
        // Bucket the cells by tile (a counting sort), noting each tile's
        // best bound.
        let t = self.touched.len();
        let mut ends = vec![0usize; t + 1];
        let mut best_bound = vec![f32::NEG_INFINITY; t];
        for &(b, j, _) in cells {
            ends[j as usize + 1] += 1;
            best_bound[j as usize] = best_bound[j as usize].max(b);
        }
        (0..t).for_each(|j| ends[j + 1] += ends[j]);
        let mut fill = ends.clone();
        let mut bucketed = vec![(0.0f32, 0u32); cells.len()];
        for &(b, j, i) in cells {
            bucketed[fill[j as usize]] = (b, i);
            fill[j as usize] += 1;
        }
        let mut order: Vec<usize> = (0..t).filter(|&j| ends[j] < ends[j + 1]).collect();
        order.sort_by(|&x, &y| best_bound[y].total_cmp(&best_bound[x]));
        let (panel, stride) = (&self.top.panel.arena, self.prob.stride());
        for j in order {
            let floor = self.best.floor();
            let live = bucketed[ends[j]..ends[j + 1]]
                .iter()
                .filter(|c| c.0 >= floor);
            let probes: Vec<usize> = live.map(|c| self.first + c.1 as usize).collect();
            if probes.is_empty() {
                continue;
            }
            ctx.check()?;
            self.gathered.clear();
            for &p in &probes {
                self.gathered.extend_from_slice(self.prob.row(p));
                self.gathered
                    .resize(self.gathered.len() + stride - panel.dim(), 0.0);
            }
            let dim = panel.dim();
            let block = RowBlock {
                data: &self.gathered,
                stride,
                dim,
                rows: probes.len(),
            };
            let rows = self.top.tiles.rows(j);
            let at = rows.start;
            let tile = panel.block(rows);
            let (top, best, hits) = (self.top, &mut self.best, &mut self.hits);
            dot_block_threshold(block, tile, floor, |i, r, s| {
                let (id, w) = top.candidates[at + r];
                if w > 0 {
                    hits.push((probes[i] as u32, id, s));
                    best.offer(s, top.probe_weights[probes[i]] * w);
                }
            });
            self.touched[j] = true;
            self.visited += probes.len() as u64;
            self.scored += (probes.len() * tile.rows) as u64;
        }
        Ok(())
    }
}

/// One worker's row-weighted top-k: the fewest best-scoring pairs whose
/// weights sum to at least k. Once they do, the lowest of them is a lower
/// bound on the statement's k-th best output row, and is published to
/// the shared floor (which only rises).
struct Weighted<'a> {
    k: u64,
    held: u64,
    heap: BinaryHeap<Reverse<(u32, u64)>>,
    shared: &'a AtomicU32,
}

impl<'a> Weighted<'a> {
    fn new(k: u64, shared: &'a AtomicU32) -> Self {
        Weighted {
            k,
            held: 0,
            heap: BinaryHeap::new(),
            shared,
        }
    }

    /// The floor every worker has reached so far. Relaxed: the floor
    /// publishes no other data, and a stale read is a lower floor, which
    /// only scores more.
    fn floor(&self) -> f32 {
        f32::from_bits(self.shared.load(Ordering::Relaxed))
    }

    /// Counts a scored pair (at or above the floor) of `weight` rows.
    fn offer(&mut self, score: f32, weight: u64) {
        self.heap.push(Reverse((floor_bits(score), weight)));
        self.held += weight;
        while let Some(&Reverse((_, w))) = self.heap.peek() {
            if self.held - w < self.k {
                break;
            }
            self.held -= w;
            self.heap.pop();
        }
        if self.held >= self.k {
            let Reverse((kth, _)) = self.heap.peek().expect("held > 0");
            self.shared.fetch_max(*kth, Ordering::Relaxed);
        }
    }
}

/// The bits of a score at or above a floor `>= 0`, which order like the
/// scores: `-0.0` is first made `+0.0`.
fn floor_bits(score: f32) -> u32 {
    (score + 0.0).to_bits()
}
