//! The cone bound never undershoots a computed score: for every probe,
//! every tile and every row in it, `dot(p, r)` (the kernels' f32 score)
//! is at most `ConeTiles::bound(t, dot(p, μ_t))`. Panels and probes are
//! random and adversarial unit vectors at dim 768: axis vectors, equal-
//! magnitude sign patterns, rows whose norm overflows or underflows,
//! near-duplicate tiles (ρ ≈ 0) and antipodal ones (ρ ≈ π).

use cx_embed::rng::SplitMix64;
use cx_vector::cone::ConeTiles;
use cx_vector::kernels::dot_unrolled;
use cx_vector::VectorArena;

const DIM: usize = 768;

fn random(rng: &mut SplitMix64) -> Vec<f32> {
    (0..DIM).map(|_| rng.next_f32_symmetric()).collect()
}

/// Rows a generic generator seldom produces.
fn adversarial(rng: &mut SplitMix64) -> Vec<Vec<f32>> {
    let mut rows = Vec::new();
    for axis in [0, 1, DIM / 2, DIM - 1] {
        let mut e = vec![0.0f32; DIM];
        e[axis] = 1.0;
        rows.push(e.clone());
        e[axis] = -1.0;
        rows.push(e);
    }
    let signs: Vec<f32> = (0..DIM)
        .map(|_| if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 })
        .collect();
    rows.push(signs.clone());
    rows.push(signs.iter().map(|s| -s).collect());
    // Max-magnitude components: the norm overflows and the row is zeroed.
    rows.push(vec![f32::MAX; DIM]);
    rows.push(signs.iter().map(|s| s * f32::MAX).collect());
    // Largest components whose norm is still finite.
    rows.push(signs.iter().map(|s| s * 6.0e17).collect());
    // Subnormal components: the norm underflows and the row stays tiny.
    rows.push(vec![f32::MIN_POSITIVE / 4.0; DIM]);
    rows.push(vec![0.0; DIM]);
    // One huge component among small ones.
    let mut spike = random(rng);
    spike[7] = 1.0e30;
    rows.push(spike);
    rows
}

fn arena(rows: &[Vec<f32>]) -> VectorArena {
    let mut a = VectorArena::new(DIM);
    rows.iter().for_each(|r| {
        a.push(r);
    });
    a.normalize();
    a
}

/// Checks the bound over every (probe, tile, row) and returns how many
/// (probe, tile) cells it pruned at a 0.9 floor.
fn assert_bound_holds(rows: &[Vec<f32>], probes: &[Vec<f32>], what: &str) -> usize {
    let mut panel = arena(rows);
    let (tiles, _) = ConeTiles::build(&mut panel);
    let probes = arena(probes);
    let mut pruned = 0;
    for p in 0..probes.len() {
        let probe = probes.row(p);
        for t in 0..tiles.len() {
            let bound = tiles.bound(t, dot_unrolled(probe, tiles.centroids().row(t)));
            pruned += (bound < 0.9) as usize;
            for r in tiles.rows(t) {
                let score = dot_unrolled(probe, panel.row(r));
                assert!(
                    score <= bound || score.is_nan(),
                    "{what}: probe {p} tile {t} row {r}: score {score} > bound {bound}"
                );
            }
        }
    }
    pruned
}

#[test]
fn random_unit_vectors() {
    let mut rng = SplitMix64::new(768);
    let rows: Vec<_> = (0..300).map(|_| random(&mut rng)).collect();
    let mut probes: Vec<_> = (0..40).map(|_| random(&mut rng)).collect();
    probes.extend(rows.iter().take(20).cloned());
    assert_bound_holds(&rows, &probes, "random");
}

#[test]
fn adversarial_rows_and_probes() {
    let mut rng = SplitMix64::new(1);
    let mut rows = adversarial(&mut rng);
    rows.extend((0..150).map(|_| random(&mut rng)));
    let mut probes = adversarial(&mut rng);
    probes.extend(rows.iter().cloned());
    assert_bound_holds(&rows, &probes, "adversarial");
}

#[test]
fn tight_cones_radius_near_zero() {
    // Tiles of near-duplicates: each row is its base plus one-ulp jitter,
    // so ρ is a few ulps and the bound is almost exactly p·μ.
    let mut rng = SplitMix64::new(2);
    let mut rows = Vec::new();
    for _ in 0..3 {
        let base = random(&mut rng);
        for k in 0..64 {
            let mut v = base.clone();
            v[k % DIM] = v[k % DIM].next_up();
            rows.push(v);
        }
    }
    let mut probes: Vec<_> = rows.iter().step_by(13).cloned().collect();
    probes.extend(
        rows.iter()
            .step_by(29)
            .map(|r| r.iter().map(|x| -x).collect::<Vec<_>>()),
    );
    probes.extend((0..10).map(|_| random(&mut rng)));
    let pruned = assert_bound_holds(&rows, &probes, "rho ~ 0");
    assert!(pruned > 0, "tight cones prune the other clusters");
}

#[test]
fn antipodal_cones_radius_near_pi() {
    let mut rng = SplitMix64::new(3);
    let v = random(&mut rng);
    let minus: Vec<f32> = v.iter().map(|x| -x).collect();
    // Two rows: one tile holding v and −v, so ρ ≈ π and nothing prunes.
    let rows = vec![v.clone(), minus.clone()];
    let probes = vec![v.clone(), minus.clone(), random(&mut rng), vec![0.0; DIM]];
    assert_eq!(assert_bound_holds(&rows, &probes, "rho ~ pi"), 0);
    // Many antipodal pairs: k-means may split or keep them.
    let mut rows = Vec::new();
    for _ in 0..100 {
        let v = random(&mut rng);
        rows.push(v.iter().map(|x| -x).collect());
        rows.push(v);
    }
    let probes: Vec<_> = rows.iter().step_by(7).cloned().collect();
    assert_bound_holds(&rows, &probes, "antipodal pairs");
}
