//! The f32 join sweep under every SIMD mode the host runs: for each
//! `available_modes()` entry, `sweep` at 1, 2 and 3 workers
//! returns exactly the pairwise `cx_simd::dot >= floor` pairs over the
//! normalized rows, bit for bit and ordered by (probe, candidate).
//!
//! `force_mode` is process-global, so this file is its own test binary and
//! every test serializes on one mutex, restoring `Native` when done.

use cx_embed::{ClusterGeometry, ClusterSpec, ClusteredTextModel, EmbeddingCache, SemanticSpace};
use cx_semantic::sweep::sweep;
use cx_storage::QueryContext;
use cx_vector::simd::{available_modes, dot, force_mode, SimdMode};
use cx_vector::VectorArena;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serializes mode-forcing tests; restores `Native` on drop.
struct ModeLock(MutexGuard<'static, ()>);

impl Drop for ModeLock {
    fn drop(&mut self) {
        force_mode(SimdMode::Native).expect("native always resolves");
        let _ = &self.0;
    }
}

fn lock_modes() -> ModeLock {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let m = LOCK.get_or_init(|| Mutex::new(()));
    ModeLock(m.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Ten clusters of eight members: in-cluster pairs score high, the rest
/// near zero, so a mid floor keeps a real subset.
fn vocabulary() -> Vec<String> {
    (0..10)
        .flat_map(|c| (0..8).map(move |m| format!("c{c}m{m}")))
        .collect()
}

fn cache(dim: usize) -> EmbeddingCache {
    let words = vocabulary();
    let specs: Vec<ClusterSpec> = words
        .chunks(8)
        .enumerate()
        .map(|(c, members)| {
            let members: Vec<&str> = members.iter().map(String::as_str).collect();
            ClusterSpec::new(format!("cluster{c}"), &members)
        })
        .collect();
    let space = SemanticSpace::build(&specs, dim, 42, ClusterGeometry::default());
    EmbeddingCache::new(Arc::new(ClusteredTextModel::new("m", Arc::new(space), 7)))
}

/// The pairwise reference: every `(probe, candidate)` of the normalized
/// rows whose `dot` clears `floor`, in (probe, candidate) order.
fn pairwise(
    cache: &EmbeddingCache,
    candidates: &[String],
    probes: &[String],
    floor: f32,
) -> Vec<(u32, u32, u32)> {
    let mut cand = VectorArena::from_texts(cache, candidates);
    let mut prob = VectorArena::from_texts(cache, probes);
    cand.normalize();
    prob.normalize();
    let mut want = Vec::new();
    for i in 0..probes.len() {
        for j in 0..candidates.len() {
            let s = dot(prob.row(i), cand.row(j));
            if s >= floor {
                want.push((i as u32, j as u32, s.to_bits()));
            }
        }
    }
    want
}

#[test]
fn f32_join_sweep_equals_pairwise_under_every_mode() {
    let _guard = lock_modes();
    let words = vocabulary();
    let ctx = QueryContext::default();
    for dim in [31usize, 100, 128] {
        let cache = cache(dim);
        for mode in available_modes() {
            force_mode(mode).expect("listed mode resolves");
            for c in [0usize, 1, 7, 8, 15, 17, 64 + 13] {
                // Vocabulary words, then out-of-vocabulary text (hashed
                // n-gram fallback) past the 80 words.
                let candidates: Vec<String> = (0..c)
                    .map(|j| words.get(j).cloned().unwrap_or_else(|| format!("oov {j}")))
                    .collect();
                for p in [1usize, 2, 3, 4, 5, 33] {
                    let probes: Vec<String> =
                        (0..p).map(|i| words[(7 * i + 3) % 80].clone()).collect();
                    for floor in [f32::NEG_INFINITY, 0.5] {
                        let want = pairwise(&cache, &candidates, &probes, floor);
                        if floor == 0.5 && c == 64 + 13 {
                            assert!(
                                !want.is_empty() && want.len() < c * p,
                                "floor keeps a subset"
                            );
                        }
                        for workers in [1usize, 2, 3] {
                            let hits =
                                sweep(&cache, &candidates, &probes, floor, workers, &ctx).unwrap();
                            let got: Vec<(u32, u32, u32)> =
                                hits.iter().map(|&(i, j, s)| (i, j, s.to_bits())).collect();
                            assert_eq!(
                                got,
                                want,
                                "mode={} dim={dim} candidates={c} probes={p} floor={floor} \
                                 workers={workers}",
                                mode.label()
                            );
                        }
                    }
                }
            }
        }
    }
}
