//! Distance kernels: the optimization ladder of Figure 4.
//!
//! Each function is a rung the experiments compare:
//!
//! 1. [`dot`] — straightforward iterator dot product,
//! 2. [`dot_unrolled`] — the explicit-SIMD rung ("CPU-specific
//!    instructions"): dispatches to `cx_simd::dot`, AVX-512/AVX2/NEON
//!    with a scalar fallback that is the historical 8-wide unrolled
//!    ladder bit-for-bit,
//! 3. norms hoisted out of the O(n²) join loop (the Figure 4 binary keeps
//!    them per row for its cached-norms rung); once inputs are unit
//!    vectors ([`crate::VectorArena::normalize`]) cosine is the bare
//!    [`dot_unrolled`] — the engine's one similarity arithmetic,
//! 4. [`crate::block`] — the batched rung: one query against a contiguous
//!    panel of candidates ([`crate::block::dot_block`]), panels against
//!    panels ([`crate::block::scores_matrix`]), same per-pair arithmetic
//!    at batch-at-a-time memory traffic.
//!
//! Every rung here scores one pair per call; the blocked rung reuses these
//! exact accumulation orders so its scores are bit-identical.

/// L2 norm of `v`.
#[inline]
pub fn norm(v: &[f32]) -> f32 {
    dot_unrolled(v, v).sqrt()
}

/// Straightforward dot product (the scalar rung).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Fast dot product on the active SIMD path (see `cx_simd::dispatch`).
///
/// Historically this was the 8-wide unrolled ladder that LLVM
/// auto-vectorizes; it now dispatches to `cx_simd::dot`, whose scalar path
/// (`CX_SIMD=off`) is that exact ladder bit-for-bit and whose AVX2 /
/// AVX-512 / NEON paths use explicit FMA intrinsics. Routing the *pairwise*
/// rung through the same dispatch as the blocked kernels keeps the
/// per-ISA bit-identity contract: under one active path, blocked ≡
/// pairwise to the bit.
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    cx_simd::dot(a, b)
}

/// Cosine similarity with norms computed inline (the naive rung: three
/// passes over the data per pair).
///
/// All three passes use the unrolled kernel, so this rung isolates exactly
/// one inefficiency — recomputing norms per pair — rather than mixing in
/// the scalar-vs-unrolled gap as well (which would skew the Figure 4
/// naive baseline two ways at once).
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let (na, nb) = (norm(a), norm(b));
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot_unrolled(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n)
            .map(|i| ((i * 31 % 17) as f32 - 8.0) / 10.0)
            .collect();
        let b: Vec<f32> = (0..n)
            .map(|i| ((i * 13 % 23) as f32 - 11.0) / 10.0)
            .collect();
        (a, b)
    }

    #[test]
    fn unrolled_matches_scalar() {
        // Exercise lengths around the unroll boundary.
        for n in [0, 1, 7, 8, 9, 16, 100, 101] {
            let (a, b) = vecs(n);
            let exact = dot(&a, &b);
            let fast = dot_unrolled(&a, &b);
            assert!((exact - fast).abs() < 1e-3, "n={n}: {exact} vs {fast}");
        }
    }

    #[test]
    fn cosine_bounds_and_identity() {
        let (a, b) = vecs(100);
        let c = cosine(&a, &b);
        assert!((-1.0..=1.0).contains(&c));
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-5);
        let neg: Vec<f32> = a.iter().map(|x| -x).collect();
        assert!((cosine(&a, &neg) + 1.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        let z = vec![0.0; 10];
        let (a, _) = vecs(10);
        assert_eq!(cosine(&z, &a), 0.0);
    }

    #[test]
    fn prenormalized_agrees_with_cosine() {
        let (mut a, mut b) = vecs(100);
        let (na, nb) = (norm(&a), norm(&b));
        let expected = cosine(&a, &b);
        for x in &mut a {
            *x /= na;
        }
        for x in &mut b {
            *x /= nb;
        }
        assert!((dot_unrolled(&a, &b) - expected).abs() < 1e-5);
    }

    #[test]
    fn norm_is_sqrt_self_dot() {
        let (a, _) = vecs(33);
        assert!((norm(&a) - dot(&a, &a).sqrt()).abs() < 1e-4);
    }
}
