//! `--workload all` and `--repeat N`: runs each (workload, set) as a
//! child process of this same binary, then prints how steady every
//! metric was. Set `r` uses seed `seed + r`, as the acceptance runs do.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return [x[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let (j, delta) = ((i * (n + 1)) / 4, (i * (n + 1)) % 4);
        let j = j.clamp(1, n - 1);
        (x[j - 1] * (4 - delta) as f64 + x[j] * delta as f64) / 4.0
    })
}

/// Runs `repeat` sets of `names`; returns the worst child exit code.
pub fn run_sets(names: &[&str], seed: u64, seconds: u64, trace: bool, repeat: usize) -> i32 {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut values: BTreeMap<(String, String), (Vec<f64>, String)> = BTreeMap::new();
    let mut worst = 0;
    for set in 0..repeat as u64 {
        for name in names {
            let output = Command::new(&exe)
                .args(["--workload", name, "--seed", &(seed + set).to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .stderr(Stdio::inherit())
                .output()
                .expect("run this binary as a child");
            worst = worst.max(output.status.code().unwrap_or(1));
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            for line in stdout.lines() {
                let fields: Vec<&str> = line.split(' ').collect();
                if let ["metric", workload, metric, value, unit] = fields[..] {
                    let entry = values.entry((workload.into(), metric.into())).or_default();
                    entry
                        .0
                        .push(value.parse().expect("a metric line carries a number"));
                    entry.1 = unit.into();
                }
            }
        }
    }
    if repeat > 1 {
        println!("\nsteadiness over {repeat} sets (spread = (q3 - q1) / median, maxdev = max |x - median| / median)");
        for ((workload, metric), (v, unit)) in &values {
            let [q1, q2, q3] = quartiles(v);
            let maxdev = v.iter().map(|x| (x - q2).abs()).fold(0.0, f64::max);
            println!(
                "steady {workload} {metric} median {q2:.4} {unit} q1 {q1:.4} q3 {q3:.4} spread {:.4} maxdev {:.4}",
                (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE),
                maxdev / q2.abs().max(f64::MIN_POSITIVE)
            );
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 38, 23, 38], n=4) == [6.0, 23.0, 38.0]
        assert_eq!(quartiles(&[10.0, 2.0, 38.0, 23.0, 38.0]), [6.0, 23.0, 38.0]);
    }
}
