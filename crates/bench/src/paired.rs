//! The paired comparator behind `cx-bench --bin paired`: alternating
//! parent/change runs of two benchmark binaries, and the statistics that
//! say whether a difference between them is resolved.
//!
//! A pair is one run of each binary on the same workload and a fresh
//! seed; pairs alternate which side runs first, so a slow phase of the
//! host lands on both sides alike. Both runs of a pair must print the
//! same `result_digest` (the same answers) and finish without a failed
//! operation; a pair that does not is reported and left out.
//!
//! **Verdict rule.** A metric is *resolved* when the sign test over the
//! pairs gives p < 0.05 *and* the difference of the two sides' medians
//! exceeds the parent's interquartile range. The sign test alone resolves
//! a steady 1 % drift; the IQR test alone resolves one lucky outlier. A
//! resolved metric reads `better` or `worse` by its direction (`qps` is
//! better higher, every other metric lower); anything else reads
//! `unresolved`.
//!
//! Everything here is a pure function of the benchmark's printed lines, so
//! it is tested on canned text.

use std::collections::BTreeMap;

/// The five end-to-end metrics of `BENCHMARK.json`, in its order.
pub const END_TO_END: [&str; 5] = ["qps", "p50_ms", "p95_ms", "setup_s", "peak_rss_mb"];

/// One benchmark run's printed outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// `metric <workload> <name> <value> <unit>` lines, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// The `result_digest` of the run's answers.
    pub digest: String,
}

/// Parses one run of `workload` from the benchmark's standard output.
/// A run without its `workload …` summary line, or with a failed
/// operation, is an error.
pub fn parse_run(stdout: &str, workload: &str) -> Result<Run, String> {
    let mut metrics = BTreeMap::new();
    let mut summary = None;
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", w, name, value, ..] if *w == workload => {
                let value = value
                    .parse()
                    .map_err(|_| format!("bad metric line: {line}"))?;
                metrics.insert(name.to_string(), value);
            }
            ["workload", w, "seed", _, "attempted", a, "failed", f, "failed_share", _, "result_digest", d]
                if *w == workload =>
            {
                let count = |s: &str| s.parse::<u64>().map_err(|_| format!("bad summary: {line}"));
                summary = Some((count(a)?, count(f)?, d.to_string()));
            }
            _ => {}
        }
    }
    let (attempted, failed, digest) =
        summary.ok_or_else(|| format!("no `workload {workload}` summary line"))?;
    if failed > 0 {
        return Err(format!("{failed} of {attempted} operations failed"));
    }
    Ok(Run {
        metrics,
        attempted,
        failed,
        digest,
    })
}

/// Checks that the two runs of one pair gave the same answers.
pub fn check_pair(parent: &Run, change: &Run) -> Result<(), String> {
    if parent.digest == change.digest {
        Ok(())
    } else {
        Err(format!(
            "result_digest differs: parent {} vs change {}",
            parent.digest, change.digest
        ))
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the benchmark's own `steady` lines use the same rule).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return [x.first().copied().unwrap_or(f64::NAN); 3];
    }
    [1, 2, 3].map(|i| {
        let (j, delta) = ((i * (n + 1)) / 4, (i * (n + 1)) % 4);
        let j = j.clamp(1, n - 1);
        (x[j - 1] * (4 - delta) as f64 + x[j] * delta as f64) / 4.0
    })
}

/// Two-sided sign test: the probability, if each pair were a fair coin,
/// of a split at least as lopsided as `wins` against `losses` (ties are
/// left out before calling).
pub fn sign_test_p(wins: usize, losses: usize) -> f64 {
    let n = wins + losses;
    if n == 0 {
        return 1.0;
    }
    let tail = wins.min(losses);
    // P(X <= tail) for X ~ Binomial(n, 1/2), summed in f64.
    let mut term = 0.5f64.powi(n as i32);
    let mut sum = term;
    for i in 0..tail {
        term *= (n - i) as f64 / (i + 1) as f64;
        sum += term;
    }
    (2.0 * sum).min(1.0)
}

/// Whether a larger value of `metric` is better.
pub fn higher_is_better(metric: &str) -> bool {
    metric == "qps"
}

/// One metric's comparison over the valid pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Quartiles `[q1, median, q3]` of each side.
    pub parent: [f64; 3],
    pub change: [f64; 3],
    /// Median over pairs of `change − parent`.
    pub median_delta: f64,
    /// Pairs the change won, lost (by the metric's direction); the rest tied.
    pub wins: usize,
    pub losses: usize,
    /// Sign-test p over the untied pairs.
    pub p: f64,
    /// `better`, `worse` or `unresolved` (see the module docs).
    pub verdict: &'static str,
}

impl Comparison {
    /// The parent's interquartile range.
    pub fn parent_iqr(&self) -> f64 {
        self.parent[2] - self.parent[0]
    }
}

/// Compares paired values of one metric: `pairs[i] = (parent, change)`.
pub fn compare(pairs: &[(f64, f64)], higher_better: bool) -> Comparison {
    let side = |f: fn(&(f64, f64)) -> f64| quartiles(&pairs.iter().map(f).collect::<Vec<_>>());
    let (parent, change) = (side(|p| p.0), side(|p| p.1));
    let deltas: Vec<f64> = pairs.iter().map(|(a, b)| b - a).collect();
    let median_delta = quartiles(&deltas)[1];
    let gain = |d: f64| if higher_better { d } else { -d };
    let wins = deltas.iter().filter(|&&d| gain(d) > 0.0).count();
    let losses = deltas.iter().filter(|&&d| gain(d) < 0.0).count();
    let p = sign_test_p(wins, losses);
    let shift = change[1] - parent[1];
    let resolved = p < 0.05 && shift.abs() > parent[2] - parent[0];
    let verdict = match (resolved, gain(shift) > 0.0) {
        (false, _) => "unresolved",
        (true, true) => "better",
        (true, false) => "worse",
    };
    Comparison {
        parent,
        change,
        median_delta,
        wins,
        losses,
        p,
        verdict,
    }
}

/// One table row: metric, both sides' median [q1, q3], the median paired
/// Δ (and as a share of the parent's median), wins/pairs, the parent IQR,
/// p and the verdict.
pub fn render(metric: &str, c: &Comparison, pairs: usize) -> String {
    let side = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
    format!(
        "| {metric} | {} | {} | {:+.4} ({:+.1}%) | {}/{pairs} | {:.4} | {:.3} | {} |",
        side(c.parent),
        side(c.change),
        c.median_delta,
        100.0 * c.median_delta / c.parent[1],
        c.wins,
        c.parent_iqr(),
        c.p,
        c.verdict
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_text(workload: &str, p50: f64, failed: u64, digest: &str) -> String {
        format!(
            "host nproc 2 simd f32=avx512\n\
             metric {workload} qps 40.5 statements/s\n\
             metric {workload} p50_ms {p50} ms\n\
             metric other.workload p50_ms 1.0 ms\n\
             workload {workload} seed 7 attempted 120 failed {failed} failed_share 0.000000 result_digest {digest}\n\
             {{\"correct\": true}}\n"
        )
    }

    #[test]
    fn parses_metrics_and_summary_of_its_workload() {
        let run = parse_run(
            &run_text("semjoin.integrate", 21.5, 0, "d495e7dfd5ba30fc"),
            "semjoin.integrate",
        )
        .unwrap();
        assert_eq!(run.metrics.len(), 2);
        assert_eq!(run.metrics["p50_ms"], 21.5);
        assert_eq!((run.attempted, run.failed), (120, 0));
        assert_eq!(run.digest, "d495e7dfd5ba30fc");
    }

    #[test]
    fn failed_or_truncated_runs_are_errors() {
        let failed = parse_run(&run_text("w", 1.0, 3, "ab"), "w").unwrap_err();
        assert!(failed.contains("3 of 120"), "{failed}");
        let cut = "metric w p50_ms 1.0 ms\n";
        assert!(parse_run(cut, "w").unwrap_err().contains("summary"));
        assert!(parse_run("metric w p50_ms fast ms\n", "w").is_err());
    }

    #[test]
    fn digest_mismatch_rejects_the_pair() {
        let a = parse_run(&run_text("w", 1.0, 0, "aaaa"), "w").unwrap();
        let b = parse_run(&run_text("w", 2.0, 0, "bbbb"), "w").unwrap();
        assert!(check_pair(&a, &a.clone()).is_ok());
        assert!(check_pair(&a, &b).unwrap_err().contains("aaaa"));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[10.0, 2.0, 38.0, 23.0, 38.0]), [6.0, 23.0, 38.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn sign_test_matches_the_binomial() {
        assert_eq!(sign_test_p(0, 0), 1.0);
        // 10 of 10: 2 / 1024.
        assert!((sign_test_p(10, 0) - 2.0 / 1024.0).abs() < 1e-12);
        // 9 of 10: 2 · 11 / 1024 = 0.0215.
        assert!((sign_test_p(1, 9) - 22.0 / 1024.0).abs() < 1e-12);
        // 8 of 10: 2 · 56 / 1024 = 0.109, not resolved.
        assert!((sign_test_p(8, 2) - 112.0 / 1024.0).abs() < 1e-12);
        assert_eq!(sign_test_p(5, 5), 1.0);
    }

    #[test]
    fn verdict_needs_both_the_sign_test_and_the_parent_iqr() {
        // Lower is better; the change wins every pair by 50 %.
        let big: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + i as f64, 50.0 + i as f64))
            .collect();
        let c = compare(&big, false);
        assert_eq!((c.wins, c.losses, c.verdict), (10, 0, "better"));
        assert_eq!(c.median_delta, -50.0);
        // The same shift read as qps (higher is better) is a loss.
        assert_eq!(compare(&big, true).verdict, "worse");
        // Every pair won, but by less than the parent's spread: unresolved.
        let small: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + 4.0 * i as f64, 99.0 + 4.0 * i as f64))
            .collect();
        let c = compare(&small, false);
        assert_eq!((c.wins, c.verdict), (10, "unresolved"));
        assert!(c.parent_iqr() > 1.0);
        // A large median shift from a 7–3 split: unresolved.
        let split: Vec<(f64, f64)> = (0..10)
            .map(|i| if i < 7 { (100.0, 10.0) } else { (100.0, 200.0) })
            .collect();
        assert_eq!(compare(&split, false).verdict, "unresolved");
        // Identical sides: all ties.
        let same = vec![(1.0, 1.0); 10];
        assert_eq!(compare(&same, false).verdict, "unresolved");
    }

    #[test]
    fn rendered_row_carries_every_column() {
        let pairs: Vec<(f64, f64)> = (0..4).map(|i| (10.0 + i as f64, 5.0)).collect();
        let row = render("p50_ms", &compare(&pairs, false), 4);
        assert!(
            row.starts_with("| p50_ms | 11.5000 [10.2500, 12.7500] | 5.0000"),
            "{row}"
        );
        assert!(
            row.contains("| 4/4 |") && row.ends_with("| unresolved |"),
            "{row}"
        );
    }
}
