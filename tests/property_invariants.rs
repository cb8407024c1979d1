//! Property-based tests on core data-structure invariants: bitmaps,
//! columns, kernels, SQL top-k, and expression folding.

use cx_expr::{eval, fold_constants, BinOp, Expr};
use cx_storage::{Bitmap, Chunk, Column, DataType, Field, Scalar, Schema};
use cx_vector::block::{dot_block, dot_block_threshold, scores_matrix};
use cx_vector::kernels::{cosine, dot, dot_unrolled, norm};
use cx_vector::{RowBlock, VectorArena};
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
    fn norm_scaling(a in f32vec(32), k in -5.0f32..5.0) {
        let scaled: Vec<f32> = a.iter().map(|x| x * k).collect();
        prop_assert!((norm(&scaled) - k.abs() * norm(&a)).abs() < 1e-2);
    }
}

// ---------------------------------------------------------------------------
// Blocked kernels vs pairwise kernels
// ---------------------------------------------------------------------------

/// `v` scaled to unit L2 norm by per-element division (a zero vector stays
/// zero): with the bare dot, the pairwise reference for the one similarity
/// every semantic operator scores with.
fn unit(v: &[f32]) -> Vec<f32> {
    let n = norm(v);
    v.iter().map(|&x| if n > 0.0 { x / n } else { x }).collect()
}

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
        dot_block_threshold(RowBlock::one(&q), view, floor, |_, r, s| got.push((r, s)));
        let want: Vec<(usize, f32)> = (0..arena.len())
            .map(|r| (r, dot_unrolled(&q, arena.row(r))))
            .filter(|(_, s)| *s >= floor)
            .collect();
        prop_assert_eq!(got, want);

        // The semantic filter's arithmetic: both sides normalized, then the
        // bare dot — equal to the pairwise normalized dot, the zero row
        // scoring exactly 0.0.
        let raw: Vec<Vec<f32>> = (0..arena.len()).map(|r| arena.row(r).to_vec()).collect();
        let unit_q = unit(&q);
        arena.normalize();
        let mut unit_got: Vec<(usize, u32)> = Vec::new();
        dot_block_threshold(RowBlock::one(&unit_q), arena.as_block(), floor, |_, r, s| {
            unit_got.push((r, s.to_bits()))
        });
        let unit_want: Vec<(usize, u32)> = raw
            .iter()
            .map(|row| dot_unrolled(&unit_q, &unit(row)))
            .enumerate()
            .filter(|(_, s)| *s >= floor)
            .map(|(r, s)| (r, s.to_bits()))
            .collect();
        prop_assert_eq!(&unit_got, &unit_want);
        if floor <= 0.0 {
            prop_assert!(unit_got.contains(&(rows / 2, 0.0f32.to_bits())), "zero row scores 0.0");
        }
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
// SQL top-k: `ORDER BY similarity DESC, id LIMIT k` over a semantic join is
// the sorted prefix of a pairwise reference join
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn sql_topk_equals_sorted_semantic_join(
        n_probes in 1usize..4,
        n_labels in 1usize..30,
        seed in any::<u64>(),
    ) {
        use context_analytics::{Engine, EngineConfig, ServeConfig, Server, SqlResponse};
        use cx_embed::{EmbeddingCache, HashNGramModel};
        use cx_storage::Table;

        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        // Labels drawn from a pool of six words repeat, so scores tie and
        // only the id breaks them.
        let pool = ["boot", "boots", "coat", "cot", "mug", "mugs"];
        let mut word = || pool[rng.next_range(pool.len() as u64) as usize];
        let probes: Vec<&str> = (0..n_probes).map(|_| word()).collect();
        let labels: Vec<&str> = (0..n_labels).map(|_| word()).collect();

        let engine = Arc::new(Engine::new(EngineConfig::default()));
        engine.register_model(Arc::new(HashNGramModel::new(3)));
        let probe_table = Table::from_columns(
            Schema::new(vec![Field::new("probe", DataType::Utf8)]),
            vec![Column::from_strings(probes.iter().copied())],
        )
        .unwrap();
        engine.register_table("probes", probe_table).unwrap();
        let label_table = Table::from_columns(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("label", DataType::Utf8),
            ]),
            vec![
                Column::from_i64((0..n_labels as i64).collect()),
                Column::from_strings(labels.iter().copied()),
            ],
        )
        .unwrap();
        engine.register_table("labels", label_table).unwrap();
        let session = Server::new(engine, ServeConfig::default()).session();

        // Pairwise reference: one unrolled dot per (probe row, label row)
        // over normalized rows, kept at the join's threshold, sorted by
        // (score desc, id asc).
        let cache = EmbeddingCache::new(Arc::new(HashNGramModel::new(3)));
        let (mut pn, mut ln) =
            (VectorArena::from_texts(&cache, &probes), VectorArena::from_texts(&cache, &labels));
        pn.normalize();
        ln.normalize();
        let mut expected: Vec<(i64, f64)> = Vec::new();
        for p in 0..n_probes {
            for l in 0..n_labels {
                let score = dot_unrolled(pn.row(p), ln.row(l));
                if score >= 0.0 {
                    expected.push((l as i64, score as f64));
                }
            }
        }
        expected.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        let n = expected.len();
        for k in [0, 1, n.saturating_sub(1), n, n + 1] {
            let SqlResponse::Rows(r) = session
                .sql(&format!(
                    "SELECT id, similarity FROM probes \
                     SEMANTIC JOIN labels ON SIM(probe, label) >= 0.0 \
                     ORDER BY similarity DESC, id LIMIT {k}"
                ))
                .unwrap()
            else {
                return Err(TestCaseError::fail("a SELECT returns rows"));
            };
            let ids = r.table.column_by_name("id").unwrap();
            let scores = r.table.column_by_name("similarity").unwrap();
            let got: Vec<(i64, u64)> = ids
                .i64_values()
                .unwrap()
                .iter()
                .zip(scores.f64_values().unwrap())
                .map(|(&id, s)| (id, s.to_bits()))
                .collect();
            let want: Vec<(i64, u64)> =
                expected.iter().take(k).map(|&(id, s)| (id, s.to_bits())).collect();
            prop_assert_eq!(got, want, "k = {}", k);
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
        use cx_semantic::SemanticJoinExec;
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
                validity: Some(Bitmap::from_bools(keys.iter().map(|&(_, valid)| valid)).into()),
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
        let (mut ln, mut rn) = (VectorArena::from_texts(&c, &lv), VectorArena::from_texts(&c, &rv));
        ln.normalize();
        rn.normalize();
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
// The one panel sweep: each probe row is scored on its own, so a span of a
// stacked sweep is that span's own sweep and a single probe's rows are the
// one-probe (filter) sweep, whatever the worker count, and all of them are
// the pairwise reference.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn stacked_probe_sweep_equals_per_probe_sweeps(
        n_candidates in 0usize..150,
        span_sizes in prop::collection::vec(0usize..7, 1..6),
        seed in any::<u64>(),
    ) {
        use cx_embed::{EmbeddingCache, HashNGramModel};
        use cx_semantic::sweep::{sweep, Hit};
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
        let spans: Vec<Vec<String>> =
            span_sizes.iter().map(|&n| (0..n).map(|_| word()).collect()).collect();
        let thresholds: Vec<f32> = spans
            .iter()
            .map(|_| match rng.next_range(4) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.next_range(1000) as f32 / 1000.0,
            })
            .collect();
        let stacked: Vec<String> = spans.concat();
        let floor = thresholds.iter().copied().fold(f32::INFINITY, f32::min);

        let cache = EmbeddingCache::new(Arc::new(HashNGramModel::new(3)));
        let ctx = QueryContext::default();
        // Hits at or above `at_least` as `(probe, candidate, score bits)`,
        // probe ids rebased to the span starting at stacked row `first`.
        let triples = |hits: &[Hit], first: usize, len: usize, at_least: f32| {
            hits.iter()
                .filter(|&&(i, _, s)| s >= at_least && (first..first + len).contains(&(i as usize)))
                .map(|&(i, j, s)| (i - first as u32, j, s.to_bits()))
                .collect::<Vec<_>>()
        };

        let cand_rows: Vec<Vec<f32>> = candidates.iter().map(|t| unit(&cache.get(t))).collect();
        let run = |probes: &[String], floor: f32, workers: usize| {
            sweep(&cache, &candidates, probes, floor, workers, &ctx).unwrap()
        };
        let whole = run(&stacked, floor, 1);
        prop_assert_eq!(
            triples(&whole, 0, stacked.len(), floor),
            triples(&run(&stacked, floor, 3), 0, stacked.len(), floor),
            "1 vs 3 workers"
        );

        let mut first = 0;
        for (probes, &threshold) in spans.iter().zip(&thresholds) {
            let solo = triples(&run(probes, threshold, 1), 0, probes.len(), threshold);
            prop_assert_eq!(
                &triples(&whole, first, probes.len(), threshold),
                &solo,
                "span at stacked row {}", first
            );
            first += probes.len();
            // The filter case: one probe at the span's threshold — a
            // semantic filter's sweep — returns that probe's rows of the
            // span's sweep.
            for (i, probe) in probes.iter().enumerate() {
                let filter = run(std::slice::from_ref(probe), threshold, 1);
                let rows: Vec<_> =
                    solo.iter().filter(|t| t.0 == i as u32).map(|&(_, j, s)| (0, j, s)).collect();
                prop_assert_eq!(triples(&filter, 0, 1, threshold), rows, "filter");
            }
            let mut reference = Vec::new();
            for (i, probe) in probes.iter().enumerate() {
                let probe = unit(&cache.get(probe));
                for (j, cand) in cand_rows.iter().enumerate() {
                    let score = dot_unrolled(&probe, cand);
                    if score >= threshold {
                        reference.push((i as u32, j as u32, score.to_bits()));
                    }
                }
            }
            prop_assert_eq!(&solo, &reference, "solo vs pairwise normalized dot");
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
                .map(|v| {
                    if rng.next_range(5) == 0 {
                        Scalar::Null
                    } else {
                        v
                    }
                })
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
                    Some(c) => members
                        .iter()
                        .map(|r| &r[c])
                        .filter(|v| !v.is_null())
                        .collect(),
                    None => Vec::new(),
                };
                let sum = values
                    .iter()
                    .filter_map(|v| v.as_f64())
                    .fold(0.0, |a, b| a + b);
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
// ORDER BY … LIMIT k: the bounded sort and the bounded semantic join keep
// exactly the first k rows of the stable sort, bit for bit.
// ---------------------------------------------------------------------------

/// Every row of `op`'s output, in order.
fn output_rows(op: &dyn cx_exec::PhysicalOperator) -> Vec<Vec<Scalar>> {
    let t = cx_exec::collect_table(op).unwrap();
    (0..t.num_rows()).map(|r| t.row(r).unwrap()).collect()
}

/// One to three distinct columns of `names`, each ascending or not.
fn sort_keys(names: &[&str], rng: &mut cx_embed::rng::SplitMix64) -> Vec<(String, bool)> {
    let mut cols: Vec<&str> = names.to_vec();
    let n = 1 + rng.next_range(3.min(cols.len()) as u64) as usize;
    (0..n)
        .map(|_| {
            let name = cols.remove(rng.next_range(cols.len() as u64) as usize);
            (name.to_string(), rng.next_range(2) == 0)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn bounded_sort_equals_sort_then_limit(n in 0usize..40, seed in any::<u64>()) {
        use cx_exec::{scalar_cmp, LimitExec, PhysicalOperator, SortExec, TableScanExec};
        use cx_storage::Table;

        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        // Integers shifted just past 2^53, where distinct values share an
        // f64; floats with ±0.0 and two NaN payloads; NULLs; duplicates.
        let rows: Vec<Vec<Scalar>> = keyed_rows(n, &mut rng)
            .into_iter()
            .map(|mut row| {
                if let Scalar::Int64(v) = row[0] {
                    row[0] = Scalar::Int64((1 << 53) + v);
                }
                row
            })
            .collect();
        let names = ["i", "f", "s"];
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        let keys = sort_keys(&names, &mut rng);
        // Reference: a stable sort of the rows under `scalar_cmp`.
        let mut expected = rows.clone();
        expected.sort_by(|a, b| {
            keys.iter()
                .map(|(name, asc)| {
                    let c = names.iter().position(|n| n == name).unwrap();
                    let ord = scalar_cmp(&a[c], &b[c]);
                    if *asc { ord } else { ord.reverse() }
                })
                .find(|ord| ord.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let table = Table::from_rows(schema, rows).unwrap();
        for chunk_rows in [1, 7, n.max(1)] {
            let scan: Arc<dyn PhysicalOperator> =
                Arc::new(TableScanExec::new(Arc::new(table.rechunk(chunk_rows).unwrap())));
            for k in [0, 1, n.saturating_sub(1), n, n + 1] {
                let want = &expected[..k.min(n)];
                let bounded = SortExec::new(scan.clone(), &keys).unwrap().with_limit(k);
                prop_assert_eq!(&output_rows(&bounded)[..], want, "{:?} k={}", keys, k);
                let sort = Arc::new(SortExec::new(scan.clone(), &keys).unwrap());
                let limited = LimitExec::new(sort, k);
                prop_assert_eq!(&output_rows(&limited)[..], want, "{:?} k={}", keys, k);
            }
        }
    }

    #[test]
    fn bounded_semantic_join_equals_sort_then_limit(
        n_left in 0usize..20,
        n_right in 0usize..20,
        threshold in 0.1f32..0.9,
        seed in any::<u64>(),
    ) {
        use cx_embed::{EmbeddingCache, HashNGramModel};
        use cx_exec::{LimitExec, PhysicalOperator, SortExec, TableScanExec};
        use cx_semantic::SemanticJoinExec;
        use cx_storage::Table;

        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        // Words over a tiny alphabet: repeated keys and tied scores are
        // common. One key in eight is NULL.
        let mut key = || -> (String, bool) {
            let len = 2 + rng.next_range(3) as usize;
            let word = (0..len).map(|_| char::from(b'a' + rng.next_range(4) as u8)).collect();
            (word, rng.next_range(8) != 0)
        };
        let keys_of = |n: usize, key: &mut dyn FnMut() -> (String, bool)| -> Column {
            let keys: Vec<(String, bool)> = (0..n).map(|_| key()).collect();
            Column::Utf8 {
                values: keys.iter().map(|(w, _)| w.clone()).collect(),
                validity: Some(Bitmap::from_bools(keys.iter().map(|&(_, valid)| valid)).into()),
            }
        };
        let (left_keys, right_keys) = (keys_of(n_left, &mut key), keys_of(n_right, &mut key));
        let left = Table::from_columns(
            Schema::new(vec![Field::new("id", DataType::Int64), Field::new("l", DataType::Utf8)]),
            vec![Column::from_i64((0..n_left as i64).map(|i| i % 3).collect()), left_keys],
        )
        .unwrap();
        let tags = (0..n_right).map(|i| ["x", "y", ""][i % 3]);
        let right = Table::from_columns(
            Schema::new(vec![Field::new("r", DataType::Utf8), Field::new("tag", DataType::Utf8)]),
            vec![right_keys, Column::from_strings(tags)],
        )
        .unwrap();
        let scan = |t: &Table| -> Arc<dyn PhysicalOperator> {
            Arc::new(TableScanExec::new(Arc::new(t.clone())))
        };
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(3))));
        let sort_keys = sort_keys(&["id", "l", "r", "tag", "sim"], &mut rng);

        for workers in [1, 2, 3] {
            let join = || {
                SemanticJoinExec::new(
                    scan(&left), scan(&right), "l", "r", threshold, "sim", cache.clone(), workers,
                )
                .unwrap()
            };
            let n = cx_exec::collect_table(&join()).unwrap().num_rows();
            for k in [0, 1, n.saturating_sub(1), n, n + 1] {
                let sorted = Arc::new(SortExec::new(Arc::new(join()), &sort_keys).unwrap());
                let want = output_rows(&LimitExec::new(sorted, k));
                prop_assert_eq!(want.len(), k.min(n));
                let bounded = join().with_limit(&sort_keys, k).unwrap();
                prop_assert_eq!(
                    &output_rows(&bounded), &want, "{:?} k={} workers={}", sort_keys, k, workers
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The pruned top-k join: a resident cone-tiled build panel under a rising
// row-weighted floor keeps exactly what the threshold sweep followed by
// Sort + Limit keeps, bit for bit.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn pruned_top_k_join_equals_threshold_sweep_then_sort_limit(
        n_left in 0usize..24,
        n_right in 1usize..700,
        threshold in 0.0f32..0.9,
        seed in any::<u64>(),
    ) {
        use cx_embed::{EmbeddingCache, HashNGramModel};
        use cx_exec::operators::FilterExec;
        use cx_exec::{LimitExec, PhysicalOperator, SortExec, TableScanExec};
        use cx_expr::{col, lit};
        use cx_semantic::panel::BaseColumn;
        use cx_semantic::SemanticJoinExec;
        use cx_storage::Table;

        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        // Words over a small alphabet: values repeat on both sides (rows of
        // one value multiply a pair's weight), scores tie, and a few hundred
        // distinct build values fill several cone tiles. One key in
        // eight is NULL.
        let mut key = || -> (String, bool) {
            let len = 2 + rng.next_range(3) as usize;
            let word = (0..len).map(|_| char::from(b'a' + rng.next_range(5) as u8)).collect();
            (word, rng.next_range(8) != 0)
        };
        let keys_of = |n: usize, key: &mut dyn FnMut() -> (String, bool)| -> Column {
            let keys: Vec<(String, bool)> = (0..n).map(|_| key()).collect();
            Column::Utf8 {
                values: keys.iter().map(|(w, _)| w.clone()).collect(),
                validity: Some(Bitmap::from_bools(keys.iter().map(|&(_, valid)| valid)).into()),
            }
        };
        let (left_keys, right_keys) = (keys_of(n_left, &mut key), keys_of(n_right, &mut key));
        let left = Table::from_columns(
            Schema::new(vec![Field::new("id", DataType::Int64), Field::new("l", DataType::Utf8)]),
            vec![Column::from_i64((0..n_left as i64).map(|i| i % 3).collect()), left_keys],
        )
        .unwrap();
        let part: Vec<i64> = (0..n_right).map(|_| rng.next_range(3) as i64).collect();
        let right = Arc::new(
            Table::from_columns(
                Schema::new(vec![Field::new("r", DataType::Utf8), Field::new("rid", DataType::Int64)]),
                vec![right_keys, Column::from_i64(part)],
            )
            .unwrap(),
        );
        // The pushed-down filter drops about a third of the build rows:
        // values held only by those rows weigh 0 in the resident panel.
        let cut = rng.next_range(3) as i64;
        let build = || -> Arc<dyn PhysicalOperator> {
            let scan = Arc::new(TableScanExec::new(right.clone()));
            let pred = col("rid").not_eq(lit(cut));
            Arc::new(FilterExec::new(scan, &pred).unwrap())
        };
        let probe = || -> Arc<dyn PhysicalOperator> {
            Arc::new(TableScanExec::new(Arc::new(left.clone())))
        };
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(3))));
        let mut keys = vec![("sim".to_string(), false)];
        keys.extend(sort_keys(&["id", "l", "r", "rid"], &mut rng));
        let source = BaseColumn { table: right.clone(), column: 0 };

        for workers in [1, 2, 3] {
            let join = || {
                SemanticJoinExec::new(probe(), build(), "l", "r", threshold, "sim", cache.clone(), workers)
                    .unwrap()
            };
            let n = cx_exec::collect_table(&join()).unwrap().num_rows();
            for k in [0, 1, n.saturating_sub(1), n, n + 1] {
                let sorted = Arc::new(SortExec::new(Arc::new(join()), &keys).unwrap());
                let want = output_rows(&LimitExec::new(sorted, k));
                let pruned = join().with_limit(&keys, k).unwrap().with_resident_build(source.clone());
                let got = output_rows(&pruned);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(&g[..4], &w[..4], "{:?} k={} workers={}", keys, k, workers);
                    match (&g[4], &w[4]) {
                        (Scalar::Float64(a), Scalar::Float64(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                        other => prop_assert!(false, "scores {:?}", other),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A semantic filter over its column's resident panel ≡ the Distinct +
// sweep filter, row for row.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn resident_semantic_filter_equals_distinct_sweep_filter(
        n in 0usize..300,
        theta in 0.0f32..1.0,
        seed in any::<u64>(),
    ) {
        use cx_embed::{EmbeddingCache, HashNGramModel};
        use cx_exec::operators::{FilterExec, ProjectExec};
        use cx_exec::{PhysicalOperator, TableScanExec};
        use cx_expr::{col, lit};
        use cx_semantic::panel::BaseColumn;
        use cx_semantic::SemanticFilterExec;
        use cx_storage::Table;

        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        // Words over a small alphabet, so values repeat and scores tie;
        // one row in eight is NULL and one in sixteen is "?!", which
        // embeds to the zero vector and scores 0.0.
        let words: Vec<(String, bool)> = (0..n)
            .map(|_| {
                let len = 2 + rng.next_range(3) as usize;
                let word: String = (0..len).map(|_| char::from(b'a' + rng.next_range(5) as u8)).collect();
                let word = if rng.next_range(16) == 0 { "?!".to_string() } else { word };
                (word, rng.next_range(8) != 0)
            })
            .collect();
        let names = Column::Utf8 {
            values: words.iter().map(|(w, _)| w.clone()).collect(),
            validity: Some(Bitmap::from_bools(words.iter().map(|&(_, valid)| valid)).into()),
        };
        let part: Vec<i64> = (0..n).map(|_| rng.next_range(3) as i64).collect();
        let table = Table::from_columns(
            Schema::new(vec![Field::new("name", DataType::Utf8), Field::new("part", DataType::Int64)]),
            vec![names, Column::from_i64(part)],
        )
        .unwrap();
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(3))));
        let target = "abc";
        // θ from the draw, both ends, and a value's own score with the
        // float one ulp above it.
        let mut thetas = vec![theta, 0.0, 1.0];
        if let Some((word, _)) = words.first() {
            let score = dot_unrolled(&unit(&cache.get(target)), &unit(&cache.get(word)));
            thetas.extend([score, f32::from_bits(score.to_bits() + 1)]);
        }
        thetas.retain(|t| (0.0..=1.0).contains(t));
        let cut = rng.next_range(3) as i64;

        for rows_per_chunk in [1, 7, n.max(1)] {
            let table = Arc::new(table.rechunk(rows_per_chunk).unwrap());
            let source = BaseColumn { table: table.clone(), column: 0 };
            // A relational filter below, and the column renamed above it.
            let input = || -> Arc<dyn PhysicalOperator> {
                let scan = Arc::new(TableScanExec::new(table.clone()));
                let kept = Arc::new(FilterExec::new(scan, &col("part").not_eq(lit(cut))).unwrap());
                let exprs = [(col("part"), "part".to_string()), (col("name"), "label".to_string())];
                Arc::new(ProjectExec::new(kept, &exprs).unwrap())
            };
            for &theta in &thetas {
                let filter = || SemanticFilterExec::new(input(), "label", target, theta, cache.clone()).unwrap();
                let want = output_rows(&filter());
                let got = output_rows(&filter().with_resident_panel(source.clone()));
                prop_assert_eq!(got, want, "theta={} rows_per_chunk={}", theta, rows_per_chunk);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// GROUP BY SEMANTIC: every row of one value lands in one cluster
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every row of one value carries one cluster id and one
    /// representative, the cluster's first value; NULL keys form the last
    /// cluster. Duplicating a row in place, or re-chunking the input to 1,
    /// 7 or 1024 rows, changes no id, representative or aggregate beyond
    /// the duplicate's own row.
    #[test]
    fn semantic_group_by_keeps_every_value_in_one_cluster(
        n in 0usize..60,
        theta in 0.0f32..1.0,
        seed in any::<u64>(),
    ) {
        use cx_embed::{EmbeddingCache, HashNGramModel};
        use cx_exec::{AggFunc, AggSpec, TableScanExec};
        use cx_semantic::SemanticGroupByExec;
        use cx_storage::Table;

        let mut rng = cx_embed::rng::SplitMix64::new(seed);
        // Words over a small alphabet, so values repeat; one row in eight
        // is NULL.
        let keys: Vec<Option<String>> = (0..n)
            .map(|_| {
                let len = 2 + rng.next_range(3) as usize;
                let word: String = (0..len).map(|_| char::from(b'a' + rng.next_range(4) as u8)).collect();
                (rng.next_range(8) != 0).then_some(word)
            })
            .collect();
        let amounts: Vec<f64> = (0..n).map(|_| rng.next_range(1000) as f64 / 8.0).collect();
        let mut values: Vec<&str> = Vec::new();
        for key in keys.iter().flatten() {
            if !values.contains(&key.as_str()) {
                values.push(key);
            }
        }
        // Columns: the key, an amount, and one 0/1 indicator per distinct
        // value, whose per-cluster SUM says where that value's rows went.
        let mut fields = vec![Field::new("key", DataType::Utf8), Field::new("amount", DataType::Float64)];
        fields.extend((0..values.len()).map(|j| Field::new(format!("is{j}"), DataType::Int64)));
        let mut specs = vec![
            AggSpec::count_star("n"),
            AggSpec::new(AggFunc::Sum, "amount", "total"),
            AggSpec::new(AggFunc::Min, "amount", "lo"),
            AggSpec::new(AggFunc::Max, "amount", "hi"),
        ];
        specs.extend((0..values.len()).map(|j| AggSpec::new(AggFunc::Sum, format!("is{j}"), format!("v{j}"))));
        let (first_v, total) = (6, 3);
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(3))));
        let group_by = |rows: &[usize], rows_per_chunk: usize| {
            let rows: Vec<Vec<Scalar>> = rows
                .iter()
                .map(|&r| {
                    let mut row = vec![
                        keys[r].as_deref().map_or(Scalar::Null, Scalar::from),
                        Scalar::Float64(amounts[r]),
                    ];
                    row.extend(values.iter().map(|v| Scalar::Int64(i64::from(keys[r].as_deref() == Some(v)))));
                    row
                })
                .collect();
            let table = Table::from_rows(Schema::new(fields.clone()), rows).unwrap();
            let scan = Arc::new(TableScanExec::new(Arc::new(table.rechunk(rows_per_chunk).unwrap())));
            output_rows(&SemanticGroupByExec::new(scan, "key", theta, &specs, cache.clone()).unwrap())
        };

        let all: Vec<usize> = (0..n).collect();
        let out = group_by(&all, n.max(1));
        let nulls = keys.iter().filter(|k| k.is_none()).count();
        for (id, row) in out.iter().enumerate() {
            prop_assert_eq!(&row[1], &Scalar::Int64(id as i64));
            let members: Vec<usize> = (0..values.len()).filter(|&j| row[first_v + j] != Scalar::Int64(0)).collect();
            match &row[0] {
                // The NULL cluster is last and holds the NULL rows alone.
                Scalar::Null => {
                    prop_assert_eq!(id, out.len() - 1);
                    prop_assert!(members.is_empty());
                    prop_assert_eq!(&row[2], &Scalar::Int64(nulls as i64));
                }
                // A representative is its cluster's first value.
                rep => prop_assert_eq!(rep, &Scalar::from(values[members[0]])),
            }
        }
        prop_assert_eq!(out.len(), out.iter().filter(|r| r[0] != Scalar::Null).count() + usize::from(nulls > 0));
        // Each value's rows all land in one cluster.
        for (j, v) in values.iter().enumerate() {
            let rows = keys.iter().filter(|k| k.as_deref() == Some(*v)).count() as i64;
            let holders: Vec<Scalar> = out.iter().map(|r| r[first_v + j].clone()).filter(|x| *x != Scalar::Int64(0)).collect();
            prop_assert_eq!(holders, vec![Scalar::Int64(rows)], "value {}", v);
        }

        for rows_per_chunk in [1, 7, 1024] {
            prop_assert_eq!(&group_by(&all, rows_per_chunk), &out, "rows_per_chunk={}", rows_per_chunk);
        }

        if n > 0 {
            let d = rng.next_range(n as u64) as usize;
            let mut duplicated = all.clone();
            duplicated.insert(d + 1, d);
            let got = group_by(&duplicated, 7);
            // The duplicate's cluster counts one row more; its SUM may
            // round differently. Nothing else moves.
            let mut want = out.clone();
            let id = match keys[d].as_deref() {
                None => want.len() - 1,
                Some(v) => {
                    let j = values.iter().position(|x| *x == v).unwrap();
                    let id = want.iter().position(|r| r[first_v + j] != Scalar::Int64(0)).unwrap();
                    want[id][first_v + j] = Scalar::Int64(want[id][first_v + j].as_i64().unwrap() + 1);
                    id
                }
            };
            want[id][2] = Scalar::Int64(want[id][2].as_i64().unwrap() + 1);
            prop_assert_eq!(got.len(), want.len());
            want[id][total] = got[id][total].clone();
            prop_assert_eq!(got, want, "duplicated row {}", d);
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
        (
            inner.clone(),
            inner,
            prop::sample::select(vec![
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Eq,
                BinOp::Lt,
                BinOp::GtEq,
            ]),
        )
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

// ---------------------------------------------------------------------------
// Registered tables are immutable; statements over them are repeatable
// ---------------------------------------------------------------------------

/// Every cell of every chunk, floats by their bits (so NaN and -0.0 compare
/// exactly), chunk boundaries kept.
fn cell_bits(table: &cx_storage::Table) -> Vec<Vec<Vec<String>>> {
    table
        .chunks()
        .iter()
        .map(|chunk| {
            (0..chunk.num_rows())
                .map(|i| {
                    chunk
                        .row(i)
                        .unwrap()
                        .iter()
                        .map(|cell| match cell {
                            Scalar::Float64(v) => format!("f64:{:016x}", v.to_bits()),
                            other => format!("{other:?}"),
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn registered_tables_stay_unchanged_and_statements_repeat_bit_for_bit() {
    use context_analytics::{Engine, EngineConfig, ServeConfig, Server, SqlResponse};
    use cx_embed::HashNGramModel;
    use cx_storage::Table;

    let n = 23;
    let pool = ["boots", "boot", "coat", "mug", ""];
    let names: Vec<Scalar> = (0..n)
        .map(|i| match i % 6 {
            5 => Scalar::Null,
            k => Scalar::from(pool[(k + i / 6) % pool.len()]),
        })
        .collect();
    let prices: Vec<Scalar> = (0..n)
        .map(|i| match i % 7 {
            0 => Scalar::Float64(f64::NAN),
            1 => Scalar::Float64(-0.0),
            2 => Scalar::Float64(0.0),
            3 => Scalar::Null,
            k => Scalar::Float64(k as f64 * 1.5),
        })
        .collect();
    let items = Table::from_columns(
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]),
        vec![
            Column::from_i64((0..n as i64).collect()),
            Column::from_scalars(&names, None).unwrap(),
            Column::from_scalars(&prices, None).unwrap(),
        ],
    )
    .unwrap();
    let labels = Table::from_columns(
        Schema::new(vec![
            Field::new("label_id", DataType::Int64),
            Field::new("label", DataType::Utf8),
        ]),
        vec![
            Column::from_i64(vec![0, 1, 2, 3]),
            Column::from_strings(["boots", "coat", "boots", "hat"]),
        ],
    )
    .unwrap();
    let statements = [
        "SELECT id, name, price FROM items WHERE price >= 0.0 OR name = 'mug'",
        "SELECT id, name, label_id FROM items INNER JOIN labels ON name = label",
        "SELECT name, COUNT(*) AS n, SUM(price) AS total, MIN(price) AS lo \
         FROM items GROUP BY name ORDER BY name",
        "SELECT id, price FROM items ORDER BY price DESC, id LIMIT 5",
        "SELECT name FROM items UNION ALL SELECT label AS name FROM labels",
        "SELECT id, name FROM items WHERE name SEMANTIC LIKE 'boots' (0.5) ORDER BY id",
        "SELECT id, label_id, similarity FROM items \
         SEMANTIC JOIN labels ON SIM(name, label) >= 0.0 \
         ORDER BY similarity DESC, label_id, id LIMIT 4",
    ];

    for rows_per_chunk in [1, 7, n] {
        let items = items.rechunk(rows_per_chunk).unwrap();
        let labels = labels.rechunk(rows_per_chunk).unwrap();
        // Deep copies, taken before the tables are registered.
        let (items_before, labels_before) = (cell_bits(&items), cell_bits(&labels));
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        engine.register_model(Arc::new(HashNGramModel::new(3)));
        engine.register_table("items", items).unwrap();
        engine.register_table("labels", labels).unwrap();
        // No result memo: the second run executes too.
        let config = ServeConfig {
            cache_results: false,
            ..ServeConfig::default()
        };
        let session = Server::new(engine.clone(), config).session();
        for sql in statements {
            let mut answers = (0..2).map(|_| match session.sql(sql).unwrap() {
                SqlResponse::Rows(r) => cell_bits(&r.table),
                _ => panic!("a SELECT returns rows: {sql}"),
            });
            let first = answers.next().unwrap();
            assert!(
                first.iter().any(|chunk| !chunk.is_empty()),
                "{sql} returns rows"
            );
            assert_eq!(
                answers.next().unwrap(),
                first,
                "{sql} at {rows_per_chunk} rows a chunk"
            );
        }
        let catalog = engine.catalog();
        assert_eq!(cell_bits(&catalog.table("items").unwrap()), items_before);
        assert_eq!(cell_bits(&catalog.table("labels").unwrap()), labels_before);
    }
}
