//! Cone-bounded tiles: the layout an exact top-k sweep prunes on.
//!
//! [`ConeTiles::build`] reorders a normalized [`VectorArena`] in place
//! into clusters of similar rows and cuts them into tiles of at most
//! [`TILE`] rows. Per tile it keeps a unit centroid μ and the cosine of an
//! angular radius ρ that covers every row. For a unit probe `p` at angle α
//! to μ, each row `r` of the tile lies within ρ of μ, so ∠(p, r) ≥ α − ρ
//! and `dot(p, r) ≤ cos(max(0, α − ρ))` — the cone bound of Ram & Gray,
//! *Maximum Inner-Product Search Using Cone Trees* (KDD 2012).
//! [`ConeTiles::bound`] evaluates it from the f32 score of `p` against μ,
//! without trigonometry: `cos(α − ρ) = cos α cos ρ + sin α sin ρ`.
//!
//! The bound holds for the *computed* f32 scores, not only the exact
//! cosines: both cosines it reads (p·μ and the tile's smallest μ·r) are
//! widened by `slack = (dim + 8) · f32::EPSILON`, and so is the result.
//! That is twice the rounding error of an f32 dot of two normalized rows
//! at `dim` (γ_dim, plus the rows' few-ulp norm error), so no row scores
//! above its tile's bound. The bound is monotone in both cosines, so
//! widening them only loosens it. Zero rows (zero vectors, or rows whose
//! norm overflowed) score 0.0 against anything and drag their tile's
//! radius past π/2, which keeps the bound at or above 0.

use crate::arena::VectorArena;
use crate::block::{dot_block, dot_block_threshold, TILE};
use crate::kernels::{dot_unrolled, norm};
use crate::RowBlock;
use std::ops::Range;

/// Lloyd iterations per two-way split.
const ITERS: usize = 1;

/// Rows a split draws its two pivots from.
const PIVOT_SAMPLE: usize = 128;

/// Lloyd rounds of spherical k-means after the first bisection.
const ROUNDS: usize = 5;

/// Centroids a row chooses among in a Lloyd round: its own cluster's
/// nearest (its own included).
const NEIGHBOURS: usize = 16;

/// A panel's rows grouped into cone-bounded tiles (see the module docs).
#[derive(Debug, Clone)]
pub struct ConeTiles {
    /// Tile `t` is panel rows `starts[t]..starts[t + 1]`.
    starts: Vec<u32>,
    /// One unit centroid μ per tile.
    centroids: VectorArena,
    /// Per tile, `(cos ρ, sin ρ)` of its widened angular radius.
    radius: Vec<(f64, f64)>,
    /// The f32 rounding allowance of one dot at the panel's dimension.
    slack: f64,
}

impl ConeTiles {
    /// Groups the rows of a normalized `panel` into cone tiles: `panel` is
    /// reordered in place so that each tile is a contiguous run of rows,
    /// and the returned order maps each new row to its old row number.
    ///
    /// Three steps, none of which scores every row against every cluster:
    /// a bisecting spherical 2-means splits the panel until each group
    /// fits a tile (a split scores each row against one direction,
    /// `c₁ − c₂`); a few Lloyd rounds of spherical k-means then move each
    /// row to the best of the `NEIGHBOURS` centroids nearest its own,
    /// one threshold-kernel call per cluster; clusters that grew past a
    /// tile are bisected again. The rows move in place between rounds, so
    /// the panel is never copied.
    pub fn build(panel: &mut VectorArena) -> (ConeTiles, Vec<u32>) {
        let (n, dim) = (panel.len(), panel.dim());
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rows = order.clone();
        let mut runs = if n == 0 {
            vec![0]
        } else {
            bisect(panel, &mut rows, 0..n)
        };
        arrange(panel, &mut order, &rows);
        for _ in 0..ROUNDS {
            if runs.len() <= 2 {
                break;
            }
            let cluster = refine(panel, &runs);
            rows = (0..n as u32).collect();
            rows.sort_by_key(|&r| cluster[r as usize]);
            arrange(panel, &mut order, &rows);
            let moved =
                (1..n).filter(|&i| cluster[rows[i] as usize] != cluster[rows[i - 1] as usize]);
            runs = std::iter::once(0).chain(moved).chain([n]).collect();
        }
        rows = (0..n as u32).collect();
        let mut starts = vec![0u32];
        for run in runs.windows(2) {
            let leaves = bisect(panel, &mut rows, run[0]..run[1]);
            starts.extend(leaves[1..].iter().map(|&s| s as u32));
        }
        arrange(panel, &mut order, &rows);

        let slack = (dim + 8) as f64 * f32::EPSILON as f64;
        let tiles = starts.len() - 1;
        let mut centroids = VectorArena::with_capacity(dim, tiles);
        let mut mean = vec![0.0f32; dim];
        for t in 0..tiles {
            mean.fill(0.0);
            for r in starts[t] as usize..starts[t + 1] as usize {
                add(&mut mean, panel.row(r));
            }
            centroids.push(&mean);
        }
        centroids.normalize();
        let mut scores = [0.0f32; TILE];
        let radius = (0..tiles)
            .map(|t| {
                let rows = starts[t] as usize..starts[t + 1] as usize;
                let scores = &mut scores[..rows.len()];
                let block = panel.block(rows);
                dot_block(centroids.row(t), block.data, block.stride, scores);
                // A NaN score (a NaN row or centroid) leaves the tile unbounded.
                let cos = match scores.iter().any(|s| s.is_nan()) {
                    true => -1.0,
                    false => scores.iter().fold(1.0f64, |m, &s| m.min(s as f64)) - slack,
                }
                .max(-1.0);
                (cos, (1.0 - cos * cos).max(0.0).sqrt())
            })
            .collect();
        (
            ConeTiles {
                starts,
                centroids,
                radius,
                slack,
            },
            order,
        )
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.radius.len()
    }

    /// Whether there are no tiles (an empty panel).
    pub fn is_empty(&self) -> bool {
        self.radius.is_empty()
    }

    /// Panel rows of tile `t`.
    pub fn rows(&self, t: usize) -> Range<usize> {
        self.starts[t] as usize..self.starts[t + 1] as usize
    }

    /// The tiles' unit centroids, one row per tile: the panel a probe
    /// block is scored against to feed [`ConeTiles::bound`].
    pub fn centroids(&self) -> RowBlock<'_> {
        self.centroids.as_block()
    }

    /// An upper bound on the f32 score of a unit probe against every row
    /// of tile `t`, given `cos_centroid`, the probe's f32 score against
    /// the tile's centroid: `cos(max(0, ∠(p, μ) − ρ))` plus slack,
    /// rounded up to f32. A NaN score bounds nothing (1.0 + slack).
    pub fn bound(&self, t: usize, cos_centroid: f32) -> f32 {
        let c = (cos_centroid as f64 + self.slack).clamp(-1.0, 1.0);
        let (cos_r, sin_r) = self.radius[t];
        let apart = c * cos_r + (1.0 - c * c).sqrt() * sin_r;
        // α ≤ ρ (or a NaN score): the probe is inside the cone.
        let b = if c < cos_r { apart } else { 1.0 };
        // One f32 ulp at 1.0 on top: at least half an ulp of any |b| < 2,
        // so rounding to f32 never lowers the bound.
        (b + self.slack + f32::EPSILON as f64) as f32
    }
}

/// Splits `order[range]` by bisecting 2-means until every group fits a
/// tile, reordering it group by group; returns the group boundaries
/// (`range.start`, …, `range.end`).
fn bisect(panel: &VectorArena, order: &mut [u32], range: Range<usize>) -> Vec<usize> {
    let mut starts = vec![range.start];
    // Depth first, left part first, so the groups come out in order.
    let mut groups = vec![range];
    while let Some(group) = groups.pop() {
        if group.len() <= TILE {
            starts.push(group.end);
            continue;
        }
        let mid = group.start + split(panel, &mut order[group.clone()]);
        groups.push(mid..group.end);
        groups.push(group.start..mid);
    }
    starts
}

/// Reorders `panel` so that new row `i` is current row `rows[i]`, and
/// `order` (current row → original row) with it.
fn arrange(panel: &mut VectorArena, order: &mut Vec<u32>, rows: &[u32]) {
    panel.reorder(rows);
    *order = rows.iter().map(|&r| order[r as usize]).collect();
}

/// One Lloyd round of spherical k-means over the clusters `runs` (row
/// boundaries of contiguous clusters): returns each row's new cluster.
/// A row chooses among the [`NEIGHBOURS`] centroids nearest its own, so
/// the round scores each cluster's rows, as one probe block, against a
/// small panel rather than every centroid.
fn refine(panel: &VectorArena, runs: &[usize]) -> Vec<u32> {
    let (dim, clusters) = (panel.dim(), runs.len() - 1);
    let mut centroids = VectorArena::new(dim);
    let mut mean = vec![0.0f32; dim];
    for run in runs.windows(2) {
        mean.fill(0.0);
        (run[0]..run[1]).for_each(|r| add(&mut mean, panel.row(r)));
        centroids.push(&mean);
    }
    centroids.normalize();
    let near = NEIGHBOURS.min(clusters);
    let (all, mut scores) = (centroids.as_block(), vec![0.0f32; clusters]);
    let mut cluster = vec![0u32; panel.len()];
    for (c, run) in runs.windows(2).enumerate() {
        dot_block(centroids.row(c), all.data, all.stride, &mut scores);
        let mut ids: Vec<u32> = (0..clusters as u32).collect();
        if near < clusters {
            ids.select_nth_unstable_by(near - 1, |x, y| {
                scores[*y as usize].total_cmp(&scores[*x as usize])
            });
        }
        ids.truncate(near);
        let mut candidates = VectorArena::new(dim);
        ids.iter().for_each(|&j| {
            candidates.push(centroids.row(j as usize));
        });
        let mut best = vec![(f32::NEG_INFINITY, c as u32); run[1] - run[0]];
        let block = panel.block(run[0]..run[1]);
        dot_block_threshold(
            block,
            candidates.as_block(),
            f32::NEG_INFINITY,
            |i, j, s| {
                if s > best[i].0 {
                    best[i] = (s, ids[j]);
                }
            },
        );
        for (i, (_, j)) in best.into_iter().enumerate() {
            cluster[run[0] + i] = j;
        }
    }
    cluster
}

/// Splits `rows` (panel row numbers, more than one) in two by spherical
/// 2-means, reordering them so the first part comes first; returns the
/// first part's length, always in `1..rows.len()`.
fn split(panel: &VectorArena, rows: &mut [u32]) -> usize {
    let dim = panel.dim();
    let dot = |r: u32, v: &[f32]| dot_unrolled(panel.row(r as usize), v);
    // Pivots, from an evenly spaced sample: the row farthest from the
    // sample's mean, then the row farthest from that one.
    let sample: Vec<u32> = rows
        .iter()
        .step_by(rows.len().div_ceil(PIVOT_SAMPLE))
        .copied()
        .collect();
    let farthest = |v: &[f32]| {
        let scored = sample.iter().map(|&r| (dot(r, v), r));
        scored
            .min_by(|x, y| x.0.total_cmp(&y.0))
            .expect("a group has rows")
            .1
    };
    let mut sides = [vec![0.0f32; dim], vec![0.0f32; dim]];
    sample
        .iter()
        .for_each(|&r| add(&mut sides[0], panel.row(r as usize)));
    let a = farthest(&sides[0]);
    let b = farthest(panel.row(a as usize));
    sides[0].copy_from_slice(panel.row(a as usize));
    sides[1].copy_from_slice(panel.row(b as usize));
    let mut scores = vec![0.0f32; rows.len()];
    let mut direction = vec![0.0f32; dim];
    for iter in 0..=ITERS {
        direction
            .iter_mut()
            .zip(sides[0].iter().zip(&sides[1]))
            .for_each(|(d, (x, y))| *d = x - y);
        rows.iter()
            .zip(&mut scores)
            .for_each(|(&r, s)| *s = dot(r, &direction));
        if iter == ITERS {
            break;
        }
        sides.iter_mut().for_each(|s| s.fill(0.0));
        for (&r, &s) in rows.iter().zip(&scores) {
            let side = if s >= 0.0 { 0 } else { 1 };
            add(&mut sides[side], panel.row(r as usize));
        }
        for side in &mut sides {
            let n = norm(side);
            side.iter_mut()
                .for_each(|x| *x /= if n > 0.0 { n } else { 1.0 });
        }
    }
    // Rows nearer the first centroid first. A lopsided split (outliers
    // peeled off one by one would make the tree as deep as the panel is
    // long) or one the direction cannot make (duplicates, zero rows)
    // cuts at the middle of that order instead.
    let key = |s: f32| if s.is_nan() { f32::NEG_INFINITY } else { s };
    let mut ordered: Vec<(f32, u32)> = scores
        .into_iter()
        .map(key)
        .zip(rows.iter().copied())
        .collect();
    ordered.sort_by(|x, y| y.0.total_cmp(&x.0));
    let first = ordered.iter().filter(|x| x.0 >= 0.0).count();
    rows.iter_mut().zip(&ordered).for_each(|(r, x)| *r = x.1);
    let len = rows.len();
    if first < len / 8 || first > len - len / 8 || first == 0 || first == len {
        len / 2
    } else {
        first
    }
}

/// `sum += row`, element by element.
fn add(sum: &mut [f32], row: &[f32]) {
    sum.iter_mut().zip(row).for_each(|(s, x)| *s += x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::rng::SplitMix64;

    fn random_panel(rows: usize, dim: usize, seed: u64) -> VectorArena {
        let mut rng = SplitMix64::new(seed);
        let mut panel = VectorArena::new(dim);
        for _ in 0..rows {
            let v: Vec<f32> = (0..dim).map(|_| rng.next_f32_symmetric()).collect();
            panel.push(&v);
        }
        panel.normalize();
        panel
    }

    #[test]
    fn build_permutes_rows_into_bounded_tiles() {
        let panel = random_panel(3 * TILE + 17, 24, 9);
        let mut tiled = panel.clone();
        let (tiles, order) = ConeTiles::build(&mut tiled);
        let mut seen = vec![false; panel.len()];
        for (i, &src) in order.iter().enumerate() {
            assert_eq!(tiled.row(i), panel.row(src as usize));
            seen[src as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "order is a permutation");
        assert_eq!(tiles.rows(tiles.len() - 1).end, panel.len());
        let probes = random_panel(40, 24, 10);
        for t in 0..tiles.len() {
            assert!((1..=TILE).contains(&tiles.rows(t).len()));
            for p in 0..probes.len() {
                let c = crate::kernels::dot_unrolled(probes.row(p), tiles.centroids.row(t));
                let bound = tiles.bound(t, c);
                for r in tiles.rows(t) {
                    let s = crate::kernels::dot_unrolled(probes.row(p), tiled.row(r));
                    assert!(s <= bound, "tile {t} probe {p} row {r}: {s} > {bound}");
                }
            }
        }
    }

    #[test]
    fn empty_and_single_tile_panels() {
        let mut empty = VectorArena::new(8);
        let (tiles, order) = ConeTiles::build(&mut empty);
        assert!(tiles.is_empty() && order.is_empty());
        let mut one = random_panel(5, 8, 1);
        let (tiles, order) = ConeTiles::build(&mut one);
        assert_eq!((tiles.len(), order), (1, vec![0, 1, 2, 3, 4]));
    }
}
