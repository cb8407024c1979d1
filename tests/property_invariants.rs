//! Property-based tests on core data-structure invariants: bitmaps,
//! columns, kernels, top-k, quantization, indexes, and expression folding.

use cx_embed::{
    dot_block_int8, dot_int8, f16_to_f32, f32_to_f16, quantize_query_int8, QuantTier,
    QuantizedVector,
};
use cx_expr::{eval, fold_constants, BinOp, Expr};
use cx_storage::{Bitmap, Chunk, Column, DataType, Field, Scalar, Schema};
use cx_vector::block::{cosine_block_threshold, dot_block, dot_block_threshold, scores_matrix};
use cx_vector::kernels::{cosine, cosine_with_norms, dot, dot_unrolled, l2_distance, norm};
use cx_vector::{BruteForceIndex, LshIndex, QuantizedArena, RowBlock, TopK, VectorArena};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Bitmap laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn bitmap_de_morgan(bits in prop::collection::vec(any::<bool>(), 0..200)) {
        let a = Bitmap::from_bools(bits.iter().copied());
        let b = Bitmap::from_bools(bits.iter().map(|x| !x));
        // NOT(a AND b) == NOT a OR NOT b
        prop_assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        // Complement partitions the domain.
        prop_assert_eq!(a.count_ones() + a.not().count_ones(), bits.len());
        // Double negation.
        prop_assert_eq!(a.not().not(), a);
    }

    #[test]
    fn bitmap_set_indices_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let bm = Bitmap::from_bools(bits.iter().copied());
        let idx = bm.set_indices();
        prop_assert_eq!(idx.len(), bm.count_ones());
        // Indices are strictly increasing and in bounds.
        for w in idx.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &i in &idx {
            prop_assert!(bm.get(i));
        }
    }
}

// ---------------------------------------------------------------------------
// Column invariants
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn column_filter_take_consistency(
        values in prop::collection::vec(any::<i64>(), 1..100),
        mask_seed in any::<u64>(),
    ) {
        let col = Column::from_i64(values.clone());
        let mask = Bitmap::from_bools(
            (0..values.len()).map(|i| (mask_seed >> (i % 64)) & 1 == 1),
        );
        let filtered = col.filter(&mask).unwrap();
        let taken = col.take(&mask.set_indices()).unwrap();
        // filter == take(set_indices)
        prop_assert_eq!(filtered, taken);
    }

    #[test]
    fn column_concat_preserves_rows(
        a in prop::collection::vec(any::<i64>(), 0..50),
        b in prop::collection::vec(any::<i64>(), 0..50),
    ) {
        let ca = Column::from_i64(a.clone());
        let cb = Column::from_i64(b.clone());
        let joined = ca.concat(&cb).unwrap();
        prop_assert_eq!(joined.len(), a.len() + b.len());
        for (i, v) in a.iter().chain(b.iter()).enumerate() {
            prop_assert_eq!(joined.get(i), Scalar::Int64(*v));
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel identities
// ---------------------------------------------------------------------------

fn f32vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len..=len)
}

proptest! {
    #[test]
    fn unrolled_dot_matches_scalar(n in 0usize..130, seed in any::<u64>()) {
        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        let a: Vec<f32> = (0..n).map(|_| rng.next_f32_symmetric()).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.next_f32_symmetric()).collect();
        let (s, u) = (dot(&a, &b), dot_unrolled(&a, &b));
        prop_assert!((s - u).abs() <= 1e-3 * (1.0 + s.abs()), "{s} vs {u}");
    }

    #[test]
    fn cauchy_schwarz(a in f32vec(64), b in f32vec(64)) {
        let c = cosine(&a, &b);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&c), "cosine {c}");
        // Symmetry.
        prop_assert!((c - cosine(&b, &a)).abs() < 1e-5);
    }

    #[test]
    fn triangle_inequality_l2(a in f32vec(32), b in f32vec(32), c in f32vec(32)) {
        let ab = l2_distance(&a, &b);
        let bc = l2_distance(&b, &c);
        let ac = l2_distance(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-2, "{ac} > {ab} + {bc}");
    }

    #[test]
    fn norm_scaling(a in f32vec(32), k in -5.0f32..5.0) {
        let scaled: Vec<f32> = a.iter().map(|x| x * k).collect();
        prop_assert!((norm(&scaled) - k.abs() * norm(&a)).abs() < 1e-2);
    }
}

// ---------------------------------------------------------------------------
// Blocked kernels vs pairwise kernels
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn dot_block_matches_pairwise(
        // Dims deliberately include non-multiples of 8 (tail path) and the
        // degenerate dim-1 case; pad-or-not covers both stride layouts.
        dim in 1usize..130,
        rows in 0usize..40,
        pad in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        let stride = if pad { dim.next_multiple_of(8) } else { dim };
        let q: Vec<f32> = (0..dim).map(|_| rng.next_f32_symmetric()).collect();
        let mut block = vec![0.0f32; rows * stride];
        for r in 0..rows {
            for x in &mut block[r * stride..r * stride + dim] {
                *x = rng.next_f32_symmetric();
            }
        }
        // Make one row a zero vector when there are any rows.
        if rows > 0 {
            let z = seed as usize % rows;
            block[z * stride..z * stride + dim].fill(0.0);
        }
        let mut out = vec![f32::NAN; rows];
        dot_block(&q, &block, stride, &mut out);
        for r in 0..rows {
            let pairwise = dot_unrolled(&q, &block[r * stride..r * stride + dim]);
            // The contract is |Δ| <= 1e-5; the implementation achieves
            // bit-equality by preserving accumulation order.
            prop_assert!((out[r] - pairwise).abs() <= 1e-5, "row {r}: {} vs {pairwise}", out[r]);
            prop_assert_eq!(out[r].to_bits(), pairwise.to_bits(), "row {r} not bit-identical");
        }
    }

    #[test]
    fn threshold_block_scan_matches_pairwise_filter(
        dim in 1usize..100,
        rows in 0usize..40,
        floor in -1.0f32..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        let q: Vec<f32> = (0..dim).map(|_| rng.next_f32_symmetric()).collect();
        let qn = norm(&q);
        let mut arena = VectorArena::new(dim);
        for r in 0..rows.max(1) {
            if r == rows / 2 {
                arena.push(&vec![0.0; dim]); // zero vector row
            } else {
                arena.push(&(0..dim).map(|_| rng.next_f32_symmetric()).collect::<Vec<_>>());
            }
        }
        let view = arena.as_block();
        let mut got: Vec<(usize, f32)> = Vec::new();
        dot_block_threshold(RowBlock::one(&q, &qn), view, floor, |_, r, s| got.push((r, s)));
        let want: Vec<(usize, f32)> = (0..arena.len())
            .map(|r| (r, dot_unrolled(&q, arena.row(r))))
            .filter(|(_, s)| *s >= floor)
            .collect();
        prop_assert_eq!(got, want);

        // Cosine variant agrees with the pairwise cosine_with_norms kernel.
        let mut cos_got: Vec<(usize, f32)> = Vec::new();
        cosine_block_threshold(&q, qn, view.data, view.stride, view.norms, floor, |r, s| {
            cos_got.push((r, s))
        });
        let cos_want: Vec<(usize, f32)> = (0..arena.len())
            .map(|r| (r, cosine_with_norms(&q, arena.row(r), qn, arena.row_norm(r))))
            .filter(|(_, s)| *s >= floor)
            .collect();
        prop_assert_eq!(cos_got, cos_want);
    }

    #[test]
    fn scores_matrix_matches_pairwise_loop(
        dim in 1usize..80,
        m in 0usize..20,
        n in 0usize..20,
        seed in any::<u64>(),
    ) {
        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        let mut probe = VectorArena::new(dim);
        let mut build = VectorArena::new(dim);
        for _ in 0..m {
            probe.push(&(0..dim).map(|_| rng.next_f32_symmetric()).collect::<Vec<_>>());
        }
        for _ in 0..n {
            build.push(&(0..dim).map(|_| rng.next_f32_symmetric()).collect::<Vec<_>>());
        }
        let (pv, bv) = (probe.as_block(), build.as_block());
        let mut out = vec![f32::NAN; m * n];
        scores_matrix(pv.data, pv.stride, m, dim, bv.data, bv.stride, n, &mut out);
        for i in 0..m {
            for j in 0..n {
                let pairwise = dot_unrolled(probe.row(i), build.row(j));
                prop_assert!((out[i * n + j] - pairwise).abs() <= 1e-5, "({i},{j})");
                prop_assert_eq!(out[i * n + j].to_bits(), pairwise.to_bits(), "({i},{j})");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TopK vs full sort
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn topk_matches_sorted_prefix(
        scores in prop::collection::vec(0.0f32..1.0, 1..80),
        k in 1usize..20,
    ) {
        let mut tk = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            tk.push(i, s);
        }
        let got: Vec<f32> = tk.into_sorted().into_iter().map(|(_, s)| s).collect();
        let mut all = scores.clone();
        all.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let want: Vec<f32> = all.into_iter().take(k).collect();
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------------
// Quantization bounds
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn f16_roundtrip_relative_error(x in -60_000.0f32..60_000.0) {
        let rt = f16_to_f32(f32_to_f16(x));
        if x.abs() > 1e-4 {
            let rel = ((rt - x) / x).abs();
            prop_assert!(rel < 1e-3, "x={x} rt={rt}");
        }
    }

    #[test]
    fn int8_dot_error_bounded(a in f32vec(100), b in f32vec(100)) {
        let exact = dot(&a, &b);
        let approx = QuantizedVector::to_int8(&a).dot(&b);
        // Error bound: per-element quantization error × |b|_1.
        let max_a = a.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let b_l1: f32 = b.iter().map(|x| x.abs()).sum();
        let bound = (max_a / 127.0) * b_l1 * 0.51 + 1e-3;
        prop_assert!((exact - approx).abs() <= bound, "{exact} vs {approx} (bound {bound})");
    }
}

// ---------------------------------------------------------------------------
// Quantized panel kernels vs pairwise quantized kernels and f32 panels
// ---------------------------------------------------------------------------

/// A padded arena of random rows; one row zeroed when any exist. Dims
/// include non-multiples of 8 (both kernels' tail paths).
fn quantizable_arena(dim: usize, rows: usize, seed: u64) -> VectorArena {
    let mut rng = cx_embed::rng::SplitMix64::new(seed);
    let mut arena = VectorArena::new(dim);
    for _ in 0..rows {
        arena.push(&(0..dim).map(|_| rng.next_f32_symmetric()).collect::<Vec<_>>());
    }
    if rows > 0 {
        // Rebuild with a zero row in a seed-dependent slot.
        let z = seed as usize % rows;
        let mut with_zero = VectorArena::new(dim);
        for r in 0..rows {
            if r == z {
                with_zero.push(&vec![0.0; dim]);
            } else {
                with_zero.push(arena.row(r));
            }
        }
        return with_zero;
    }
    arena
}

proptest! {
    /// The int8 panel kernel is bit-identical to the pairwise `dot_int8`
    /// ladder: integer accumulation is exact, and the scale multiply order
    /// matches.
    #[test]
    fn int8_panel_bit_identical_to_pairwise(
        dim in 1usize..130,
        rows in 0usize..40,
        seed in any::<u64>(),
    ) {
        let arena = quantizable_arena(dim, rows, seed);
        let mut rng = cx_embed::rng::SplitMix64::new(seed ^ 0xABCD);
        let qf: Vec<f32> = (0..dim).map(|_| rng.next_f32_symmetric()).collect();
        let (qi, q_scale) = quantize_query_int8(&qf);

        // Kernel level: raw i32 accumulators equal the scalar sum exactly.
        let panel = QuantizedArena::from_arena(&arena, QuantTier::Int8).unwrap();
        let stride = panel.stride();
        let mut rows_i8 = vec![0i8; arena.len() * stride];
        let mut scales = vec![0.0f32; arena.len()];
        for r in 0..arena.len() {
            let QuantizedVector::Int8 { data, scale } = QuantizedVector::to_int8(arena.row(r))
            else { unreachable!() };
            rows_i8[r * stride..r * stride + dim].copy_from_slice(&data);
            scales[r] = scale;
        }
        let mut acc = vec![0i32; arena.len()];
        dot_block_int8(&qi, &rows_i8, stride, &mut acc);
        for r in 0..arena.len() {
            let row = &rows_i8[r * stride..r * stride + dim];
            let exact: i32 = qi.iter().zip(row).map(|(&x, &y)| x as i32 * y as i32).sum();
            prop_assert_eq!(acc[r], exact, "row {} accumulator", r);
        }

        // Arena level: scores equal pairwise dot_int8 to the bit.
        let got = panel.scores(&qf);
        for r in 0..arena.len() {
            let row = &rows_i8[r * stride..r * stride + dim];
            let want = dot_int8(&qi, q_scale, row, scales[r]);
            prop_assert_eq!(got[r].to_bits(), want.to_bits(), "row {} score", r);
        }
    }

    /// f16 and int8 panel scores stay within their documented absolute
    /// error bounds of the f32 blocked kernel. Bounds are computed from
    /// the actual values (triangle inequality over per-element
    /// quantization error), so they hold for every generated case
    /// including zero vectors and tail dims.
    #[test]
    fn quantized_panels_within_error_bounds_of_f32(
        dim in 1usize..130,
        rows in 1usize..40,
        seed in any::<u64>(),
    ) {
        let arena = quantizable_arena(dim, rows, seed);
        let mut rng = cx_embed::rng::SplitMix64::new(seed ^ 0x5EED);
        let q: Vec<f32> = (0..dim).map(|_| rng.next_f32_symmetric()).collect();
        let view = arena.as_block();
        let mut exact = vec![0.0f32; rows];
        dot_block(&q, view.data, view.stride, &mut exact);

        // f16: |x - f16(x)| <= 2^-11 |x| in the normal range (plus a tiny
        // absolute term for subnormal flushing), so
        // |Δdot| <= Σ |q_i| (2^-11 |x_i| + 6.2e-5) + f32 rounding slack.
        let f16_panel = QuantizedArena::from_arena(&arena, QuantTier::F16).unwrap();
        let got = f16_panel.scores(&q);
        for r in 0..rows {
            let row = arena.row(r);
            let bound: f32 = q
                .iter()
                .zip(row)
                .map(|(qi, xi)| qi.abs() * (xi.abs() * 4.9e-4 + 6.2e-5))
                .sum::<f32>()
                + 1e-5 * (1.0 + exact[r].abs());
            prop_assert!(
                (got[r] - exact[r]).abs() <= bound,
                "f16 row {}: {} vs {} (bound {})", r, got[r], exact[r], bound
            );
        }

        // int8: both sides quantized symmetrically. With s_a = max|a|/127,
        // |a_i - â_i| <= s_a/2, so
        // |Δdot| <= Σ (|q_i| s_x/2 + |x_i| s_q/2 + s_q s_x/4) + slack.
        let (_, s_q) = quantize_query_int8(&q);
        let int8_panel = QuantizedArena::from_arena(&arena, QuantTier::Int8).unwrap();
        let got = int8_panel.scores(&q);
        for r in 0..rows {
            let row = arena.row(r);
            let max_x = row.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let s_x = if max_x > 0.0 { max_x / 127.0 } else { 0.0 };
            let bound: f32 = q
                .iter()
                .zip(row)
                .map(|(qi, xi)| 0.51 * (qi.abs() * s_x + xi.abs() * s_q) + s_q * s_x)
                .sum::<f32>()
                + 1e-5 * (1.0 + exact[r].abs());
            prop_assert!(
                (got[r] - exact[r]).abs() <= bound,
                "int8 row {}: {} vs {} (bound {})", r, got[r], exact[r], bound
            );
        }

        // Zero rows score exactly zero at every tier.
        let z = seed as usize % rows;
        prop_assert_eq!(f16_panel.scores(&q)[z], 0.0);
        prop_assert_eq!(int8_panel.scores(&q)[z], 0.0);
    }
}

// ---------------------------------------------------------------------------
// Index correctness: approximate ⊆ exact, no false positives
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn lsh_results_are_subset_of_brute_force(seed in any::<u64>()) {
        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        let mut arena = VectorArena::new(16);
        for _ in 0..120 {
            arena.push(&rng.unit_vector(16));
        }
        let brute = BruteForceIndex::build(&arena);
        let lsh = LshIndex::build_default(&arena);
        let q = rng.unit_vector(16);
        let exact: std::collections::HashSet<usize> =
            brute.search_threshold(&q, 0.8).iter().map(|r| r.id).collect();
        for r in lsh.search_threshold(&q, 0.8) {
            // Every LSH hit is a true hit (scores verified exactly).
            prop_assert!(exact.contains(&r.id), "false positive id {}", r.id);
            prop_assert!(r.score >= 0.8);
        }
    }
}

// ---------------------------------------------------------------------------
// SemanticJoin: blocked scoring equals a pairwise reference join
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn semantic_join_blocked_equals_pairwise(
        n_left in 1usize..25,
        n_right in 1usize..25,
        threshold in 0.1f32..0.9,
        parallelism in 1usize..5,
        seed in any::<u64>(),
    ) {
        use cx_embed::{EmbeddingCache, HashNGramModel};
        use cx_exec::{collect_table, PhysicalOperator, TableScanExec};
        use cx_semantic::{SemanticJoinExec, SemanticJoinStrategy};
        use cx_storage::Table;

        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        // Short random words over a tiny alphabet: plenty of near-collisions
        // so thresholds actually separate pairs. One key in eight is NULL,
        // which never joins — though a real word lies under its cell, so a
        // join that read it would match it.
        let mut key = || -> (String, bool) {
            let len = 2 + rng.next_range(5) as usize;
            let word = (0..len).map(|_| char::from(b'a' + rng.next_range(6) as u8)).collect();
            (word, rng.next_range(8) != 0)
        };
        let left_keys: Vec<(String, bool)> = (0..n_left).map(|_| key()).collect();
        let right_keys: Vec<(String, bool)> = (0..n_right).map(|_| key()).collect();
        let cache = || Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(3))));

        let scan = |keys: &[(String, bool)], col: &str| -> Arc<dyn PhysicalOperator> {
            let column = Column::Utf8 {
                values: keys.iter().map(|(word, _)| word.clone()).collect(),
                validity: Some(Bitmap::from_bools(keys.iter().map(|&(_, valid)| valid))),
            };
            let schema = Schema::new(vec![Field::new(col, DataType::Utf8)]);
            let table = Table::from_columns(schema, vec![column]).unwrap();
            Arc::new(TableScanExec::new(Arc::new(table)))
        };
        let join = SemanticJoinExec::new(
            scan(&left_keys, "l"),
            scan(&right_keys, "r"),
            "l",
            "r",
            threshold,
            "sim",
            SemanticJoinStrategy::Blocked,
            cache(),
            parallelism,
        )
        .unwrap();
        let blocked = collect_table(&join).unwrap();

        // Pairwise reference: distinct non-NULL keys in first-appearance
        // order with their rows, one unrolled dot per distinct pair over
        // normalized rows, then expansion to row pairs in operator order.
        fn distinct(keys: &[(String, bool)]) -> (Vec<&str>, Vec<Vec<usize>>) {
            let mut values: Vec<&str> = Vec::new();
            let mut rows: Vec<Vec<usize>> = Vec::new();
            for (row, (k, _)) in keys.iter().enumerate().filter(|(_, (_, valid))| *valid) {
                match values.iter().position(|v| *v == k) {
                    Some(id) => rows[id].push(row),
                    None => {
                        values.push(k);
                        rows.push(vec![row]);
                    }
                }
            }
            (values, rows)
        }
        let ((lv, lrows), (rv, rrows)) = (distinct(&left_keys), distinct(&right_keys));
        let c = cache();
        let (ln, rn) = (
            VectorArena::from_texts(&c, &lv).normalized(),
            VectorArena::from_texts(&c, &rv).normalized(),
        );
        let mut expected: Vec<(&str, &str, f64)> = Vec::new();
        for (l, lr_rows) in lrows.iter().enumerate() {
            for (r, rr_rows) in rrows.iter().enumerate() {
                let score = dot_unrolled(ln.row(l), rn.row(r));
                if score < threshold {
                    continue;
                }
                for &lr in lr_rows {
                    for &rr in rr_rows {
                        expected.push((&left_keys[lr].0, &right_keys[rr].0, score as f64));
                    }
                }
            }
        }

        prop_assert_eq!(blocked.num_rows(), expected.len());
        for (i, (l, r, score)) in expected.into_iter().enumerate() {
            let row = blocked.row(i).unwrap();
            prop_assert_eq!(&row[..2], &[Scalar::from(l), Scalar::from(r)][..], "row {} keys", i);
            match &row[2] {
                Scalar::Float64(got) => {
                    prop_assert_eq!(
                        got.to_bits(), score.to_bits(), "row {} score {} vs {}", i, got, score
                    );
                }
                other => {
                    return Err(TestCaseError::fail(format!("unexpected score scalar {other:?}")));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The one panel sweep: a member's slice of the k-member sweep is its own
// one-member sweep, whatever the worker count; at f32 both are the pairwise
// reference.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn shared_sweep_slices_equal_solo_sweeps(
        n_candidates in 0usize..150,
        member_sizes in prop::collection::vec(0usize..7, 1..6),
        seed in any::<u64>(),
    ) {
        use cx_embed::{EmbeddingCache, HashNGramModel};
        use cx_exec::ScanKind;
        use cx_semantic::sweep::{sweep, Scores};
        use cx_storage::QueryContext;

        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        // Short words over a tiny alphabet (duplicates and near-collisions
        // are common); one string in eight has no token at all, so it
        // embeds to the zero vector.
        let mut word = || -> String {
            match rng.next_range(8) {
                0 => ["", "?!", " "][rng.next_range(3) as usize].to_string(),
                _ => (0..2 + rng.next_range(4))
                    .map(|_| char::from(b'a' + rng.next_range(5) as u8))
                    .collect(),
            }
        };
        let candidates: Vec<String> = (0..n_candidates).map(|_| word()).collect();
        let members: Vec<Vec<String>> =
            member_sizes.iter().map(|&n| (0..n).map(|_| word()).collect()).collect();
        let thresholds: Vec<f32> = members
            .iter()
            .map(|_| match rng.next_range(4) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.next_range(1000) as f32 / 1000.0,
            })
            .collect();
        let stacked: Vec<String> = members.concat();
        let floor = thresholds.iter().copied().fold(f32::INFINITY, f32::min);

        let cache = EmbeddingCache::new(Arc::new(HashNGramModel::new(3)));
        let ctx = QueryContext::default();
        let c = candidates.len();
        // Scores as `(probe, candidate, score bits)`, probe ids rebased to
        // the member starting at stacked row `first`.
        let triples = |scores: &Scores, first: usize, len: usize, at_least: f32| {
            let all: Vec<(u32, u32, f32)> = match scores {
                Scores::Dense(d) => d
                    .iter()
                    .enumerate()
                    .map(|(k, &s)| ((k / c) as u32, (k % c) as u32, s))
                    .collect(),
                Scores::Hits(h) => h.iter().copied().filter(|&(.., s)| s >= at_least).collect(),
            };
            all.into_iter()
                .filter(|&(i, ..)| (first..first + len).contains(&(i as usize)))
                .map(|(i, j, s)| (i - first as u32, j, s.to_bits()))
                .collect::<Vec<_>>()
        };

        let cand_rows = VectorArena::from_texts(&cache, &candidates);
        for (kind, tier) in [
            (ScanKind::CosineFilter, QuantTier::F32),
            (ScanKind::DotJoin, QuantTier::F32),
            (ScanKind::DotJoin, QuantTier::F16),
            (ScanKind::DotJoin, QuantTier::Int8),
        ] {
            let run = |probes: &[String], floor: f32, workers: usize| {
                sweep(kind, tier, &cache, &candidates, probes, floor, workers, &ctx).unwrap()
            };
            let shared = run(&stacked, floor, 1);
            prop_assert_eq!(
                triples(&shared, 0, stacked.len(), floor),
                triples(&run(&stacked, floor, 3), 0, stacked.len(), floor),
                "{:?}/{:?}: 1 vs 3 workers", kind, tier
            );

            let mut first = 0;
            for (probes, &threshold) in members.iter().zip(&thresholds) {
                let solo = triples(&run(probes, threshold, 1), 0, probes.len(), threshold);
                prop_assert_eq!(
                    &triples(&shared, first, probes.len(), threshold),
                    &solo,
                    "{:?}/{:?}: member at stacked row {}", kind, tier, first
                );
                first += probes.len();
                if tier != QuantTier::F32 {
                    continue;
                }
                let probe_rows = VectorArena::from_texts(&cache, probes);
                let (pn, cn) = (probe_rows.normalized(), cand_rows.normalized());
                let mut reference = Vec::new();
                for i in 0..probes.len() {
                    for j in 0..c {
                        let score = match kind {
                            ScanKind::CosineFilter => cosine_with_norms(
                                probe_rows.row(i),
                                cand_rows.row(j),
                                probe_rows.row_norm(i),
                                cand_rows.row_norm(j),
                            ),
                            ScanKind::DotJoin => dot_unrolled(pn.row(i), cn.row(j)),
                        };
                        if kind == ScanKind::CosineFilter || score >= threshold {
                            reference.push((i as u32, j as u32, score.to_bits()));
                        }
                    }
                }
                prop_assert_eq!(&solo, &reference, "{:?}: solo vs pairwise", kind);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hash join, hash aggregate and DISTINCT ≡ nested-loop references over
// `Column::get` and `Scalar::eq`, bit for bit and in row order, whatever
// the chunking of their inputs.
// ---------------------------------------------------------------------------

/// `(i INT64, f FLOAT64, s UTF8)` rows over small domains: NULLs,
/// duplicates, 0.0 and -0.0, NaNs with two payloads, empty strings, and
/// Int64/Float64 values that are numerically but not structurally equal.
fn keyed_rows(n: usize, rng: &mut cx_embed::rng::SplitMix64) -> Vec<Vec<Scalar>> {
    let floats = [
        0.0,
        -0.0,
        1.0,
        2.5,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0x7ff8_0000_0000_0002),
    ];
    (0..n)
        .map(|_| {
            let row = [
                Scalar::Int64(rng.next_range(4) as i64 - 1),
                Scalar::Float64(floats[rng.next_range(6) as usize]),
                Scalar::from(["", "a", "b"][rng.next_range(3) as usize]),
            ];
            row.into_iter()
                .map(|v| if rng.next_range(5) == 0 { Scalar::Null } else { v })
                .collect()
        })
        .collect()
}

/// The reference join: for each right row in order, every matching left row
/// ascending; then the unmatched (Left, LeftAnti) or matched (LeftSemi) left
/// rows ascending. NULL keys never match.
fn reference_join(
    left: &[Vec<Scalar>],
    right: &[Vec<Scalar>],
    on: &[(usize, usize)],
    join_type: cx_exec::JoinType,
) -> Vec<Vec<Scalar>> {
    use cx_exec::JoinType;
    let mut out = Vec::new();
    let mut matched = vec![false; left.len()];
    for r in right {
        for (i, l) in left.iter().enumerate() {
            if on.iter().all(|&(a, b)| !l[a].is_null() && l[a] == r[b]) {
                matched[i] = true;
                if matches!(join_type, JoinType::Inner | JoinType::Left) {
                    out.push([l.clone(), r.clone()].concat());
                }
            }
        }
    }
    for (l, m) in left.iter().zip(matched) {
        match join_type {
            JoinType::Inner => {}
            JoinType::Left if !m => out.push([l.clone(), vec![Scalar::Null; 3]].concat()),
            JoinType::LeftSemi if m => out.push(l.clone()),
            JoinType::LeftAnti if !m => out.push(l.clone()),
            _ => {}
        }
    }
    out
}

/// The reference aggregate: groups in first-seen order (linear search
/// with `Scalar::eq`), values folded in row order, output sorted stably
/// by key under `scalar_cmp`.
fn reference_aggregate(
    rows: &[Vec<Scalar>],
    keys: &[usize],
    aggs: &[(cx_exec::AggFunc, Option<usize>)],
    types: &[DataType],
) -> Vec<Vec<Scalar>> {
    use cx_exec::{scalar_cmp, AggFunc};
    use std::cmp::Ordering;
    let mut groups: Vec<(Vec<Scalar>, Vec<&Vec<Scalar>>)> = Vec::new();
    for row in rows {
        let key: Vec<Scalar> = keys.iter().map(|&k| row[k].clone()).collect();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    if keys.is_empty() && groups.is_empty() {
        groups.push((vec![], vec![]));
    }
    groups.sort_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b)
            .map(|(x, y)| scalar_cmp(x, y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    groups
        .into_iter()
        .map(|(mut out, members)| {
            for &(func, col) in aggs {
                let values: Vec<&Scalar> = match col {
                    Some(c) => members.iter().map(|r| &r[c]).filter(|v| !v.is_null()).collect(),
                    None => Vec::new(),
                };
                let sum = values.iter().filter_map(|v| v.as_f64()).fold(0.0, |a, b| a + b);
                let best = |want: Ordering| {
                    values
                        .iter()
                        .fold(None, |best: Option<&Scalar>, &v| match best {
                            Some(b) if scalar_cmp(v, b) != want => Some(b),
                            _ => Some(v),
                        })
                        .cloned()
                        .unwrap_or(Scalar::Null)
                };
                out.push(match func {
                    AggFunc::CountStar => Scalar::Int64(members.len() as i64),
                    AggFunc::Count => Scalar::Int64(values.len() as i64),
                    _ if values.is_empty() => Scalar::Null,
                    AggFunc::Sum if types[col.unwrap()] == DataType::Int64 => {
                        Scalar::Int64(sum as i64)
                    }
                    AggFunc::Sum => Scalar::Float64(sum),
                    AggFunc::Avg => Scalar::Float64(sum / values.len() as f64),
                    AggFunc::Min => best(Ordering::Less),
                    AggFunc::Max => best(Ordering::Greater),
                });
            }
            out
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn hash_operators_equal_nested_loop_references(
        n_left in 0usize..40,
        n_right in 0usize..40,
        seed in any::<u64>(),
    ) {
        use cx_exec::{
            collect_table, AggFunc, AggSpec, DistinctExec, HashAggregateExec, HashJoinExec,
            JoinType, PhysicalOperator, TableScanExec,
        };
        use cx_storage::Table;

        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        let (left, right) = (keyed_rows(n_left, &mut rng), keyed_rows(n_right, &mut rng));
        let names = ["i", "f", "s"];
        let types = [DataType::Int64, DataType::Float64, DataType::Utf8];
        let schema =
            || Schema::new(names.iter().zip(types).map(|(n, t)| Field::new(*n, t)).collect());
        // Rechunked to 1 row, 7 rows and one chunk (no chunk when empty).
        let scans = |rows: &[Vec<Scalar>]| -> Vec<Arc<dyn PhysicalOperator>> {
            let table = Table::from_rows(schema(), rows.to_vec()).unwrap();
            [1, 7, rows.len().max(1)]
                .into_iter()
                .map(|n| {
                    Arc::new(TableScanExec::new(Arc::new(table.rechunk(n).unwrap())))
                        as Arc<dyn PhysicalOperator>
                })
                .collect()
        };
        let rows_of = |op: &dyn PhysicalOperator| {
            let t = collect_table(op).unwrap();
            (0..t.num_rows()).map(|r| t.row(r).unwrap()).collect::<Vec<_>>()
        };
        let pick = |rng: &mut cx_embed::rng::SplitMix64, n: usize| -> Vec<usize> {
            let mut cols = vec![0, 1, 2];
            (0..n).map(|_| cols.remove(rng.next_range(cols.len() as u64) as usize)).collect()
        };

        // One or two key pairs, type-mismatched pairs included.
        let n_keys = 1 + rng.next_range(2) as usize;
        let on: Vec<(usize, usize)> = pick(&mut rng, n_keys)
            .into_iter()
            .map(|l| (l, rng.next_range(3) as usize))
            .collect();
        let on_names: Vec<(String, String)> =
            on.iter().map(|&(l, r)| (names[l].to_string(), names[r].to_string())).collect();
        let (left_scans, right_scans) = (scans(&left), scans(&right));
        for join_type in [JoinType::Inner, JoinType::Left, JoinType::LeftSemi, JoinType::LeftAnti] {
            let expected = reference_join(&left, &right, &on, join_type);
            for l in &left_scans {
                for r in &right_scans {
                    let join =
                        HashJoinExec::new(l.clone(), r.clone(), &on_names, join_type).unwrap();
                    prop_assert_eq!(
                        rows_of(&join), expected.clone(), "{} on {:?}", join_type, on_names
                    );
                }
            }
        }

        let n_group_keys = rng.next_range(4) as usize;
        let group_by = pick(&mut rng, n_group_keys);
        let group_names: Vec<String> = group_by.iter().map(|&k| names[k].to_string()).collect();
        let aggs: Vec<(AggFunc, Option<usize>)> = vec![
            (AggFunc::CountStar, None),
            (AggFunc::Count, Some(2)),
            (AggFunc::Sum, Some(0)),
            (AggFunc::Sum, Some(1)),
            (AggFunc::Min, Some(1)),
            (AggFunc::Max, Some(1)),
            (AggFunc::Min, Some(0)),
            (AggFunc::Max, Some(2)),
            (AggFunc::Avg, Some(1)),
            (AggFunc::Avg, Some(0)),
        ];
        let specs: Vec<AggSpec> = aggs
            .iter()
            .enumerate()
            .map(|(i, &(func, col))| match col {
                Some(c) => AggSpec::new(func, names[c], format!("a{i}")),
                None => AggSpec::count_star(format!("a{i}")),
            })
            .collect();
        // Rust leaves the payload of a NaN that arithmetic produces
        // unspecified, so SUM and AVG compare any NaN equal; every other
        // value, NaNs that are copied included, compares bit for bit.
        let arithmetic: Vec<usize> = aggs
            .iter()
            .enumerate()
            .filter(|(_, (func, _))| matches!(func, AggFunc::Sum | AggFunc::Avg))
            .map(|(i, _)| group_by.len() + i)
            .collect();
        let canonical = |mut rows: Vec<Vec<Scalar>>| {
            for row in &mut rows {
                for &i in &arithmetic {
                    if let Scalar::Float64(v) = &mut row[i] {
                        if v.is_nan() {
                            *v = f64::NAN;
                        }
                    }
                }
            }
            rows
        };
        let expected = canonical(reference_aggregate(&left, &group_by, &aggs, &types));
        let mut distinct = Vec::new();
        for row in &left {
            if !distinct.contains(row) {
                distinct.push(row.clone());
            }
        }
        for scan in &left_scans {
            let agg = HashAggregateExec::new(scan.clone(), &group_names, &specs).unwrap();
            prop_assert_eq!(
                canonical(rows_of(&agg)), expected.clone(), "group by {:?}", group_names
            );
            prop_assert_eq!(rows_of(&DistinctExec::new(scan.clone())), distinct.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Expression folding: eval(fold(e)) == eval(e)
// ---------------------------------------------------------------------------

fn arb_numeric_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::Column("x".to_string())),
        Just(Expr::Column("y".to_string())),
        (-100i64..100).prop_map(|v| Expr::Literal(Scalar::Int64(v))),
        (-100.0f64..100.0).prop_map(|v| Expr::Literal(Scalar::Float64(v))),
        Just(Expr::Literal(Scalar::Null)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (inner.clone(), inner, prop::sample::select(vec![
            BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div,
            BinOp::Eq, BinOp::Lt, BinOp::GtEq,
        ]))
            .prop_map(|(l, r, op)| Expr::Binary {
                op,
                left: Box::new(l),
                right: Box::new(r),
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn folding_preserves_evaluation(
        e in arb_numeric_expr(),
        xs in prop::collection::vec(-50i64..50, 1..8),
    ) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("y", DataType::Float64),
        ]));
        let ys: Vec<f64> = xs.iter().map(|&v| v as f64 / 3.0).collect();
        let chunk = Chunk::new(
            schema.clone(),
            vec![Column::from_i64(xs), Column::from_f64(ys)],
        ).unwrap();

        let folded = fold_constants(&e);
        // Both versions must bind identically (or both fail).
        let b1 = e.bind(&schema);
        let b2 = folded.bind(&schema);
        match (b1, b2) {
            (Ok(b1), Ok(b2)) => {
                // Types can legitimately differ (e.g. Int64 op folded into a
                // differently-typed literal is prevented by the folder, so
                // compare row-wise as scalars via SQL equality semantics).
                let v1 = eval(&b1, &chunk).unwrap();
                let v2 = eval(&b2, &chunk).unwrap();
                prop_assert_eq!(v1.len(), v2.len());
                for i in 0..v1.len() {
                    let (a, b) = (v1.get(i), v2.get(i));
                    let equal = match (a.is_null(), b.is_null()) {
                        (true, true) => true,
                        (false, false) => match (a.as_f64(), b.as_f64()) {
                            (Some(x), Some(y)) => {
                                (x - y).abs() <= 1e-9 * (1.0 + x.abs()) || (x.is_nan() && y.is_nan())
                            }
                            _ => a == b,
                        },
                        _ => false,
                    };
                    prop_assert!(equal, "row {i}: {a:?} vs {b:?} for {e} -> {folded}");
                }
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(err)) => {
                return Err(TestCaseError::fail(format!("fold broke binding: {err} for {e} -> {folded}")));
            }
            (Err(_), Ok(_)) => {
                // Folding can only make MORE expressions bindable (e.g.
                // NULL arithmetic folded away) — that is acceptable.
            }
        }
    }
}
