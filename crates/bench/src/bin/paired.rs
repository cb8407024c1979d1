//! Paired comparison of two builds of the benchmark (`benchmark/`).
//!
//! ```text
//! cargo run --release -p cx-bench --bin paired -- \
//!     --parent PARENT_BIN --change CHANGE_BIN \
//!     [--workloads all|name,name] [--pairs 10] [--seconds 18] [--seed 1000]
//! ```
//!
//! For each workload, pair `i` runs both binaries with `--seed seed + i`
//! and `--seconds`, the parent first on even pairs and the change first on
//! odd ones, one process at a time. Each pair must agree on
//! `result_digest` and fail no operation; pairs that do not are listed
//! and left out. Then one table row per end-to-end metric: both sides'
//! median [q1, q3], the median paired Δ, the pairs the change won, the
//! parent's IQR, the sign-test p and the verdict (rule in
//! `cx_bench::paired`), then every run's value pair by pair. Build each side once and copy its
//! `benchmark/target/release/cx-benchmark` out before building the other.

use cx_bench::paired::{check_pair, compare, higher_is_better, parse_run, render, Run, END_TO_END};
use std::process::{Command, Stdio};

const WORKLOADS: [&str; 4] = [
    "semfilter.scan100k",
    "semjoin.integrate",
    "relational.joinagg",
    "serve.mixed",
];

struct Args {
    parent: String,
    change: String,
    workloads: Vec<String>,
    pairs: u64,
    seconds: u64,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: paired --parent BIN --change BIN [--workloads all|a,b] [--pairs N] [--seconds S] [--seed S]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        parent: String::new(),
        change: String::new(),
        workloads: WORKLOADS.map(String::from).to_vec(),
        pairs: 10,
        seconds: 18,
        seed: 1000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        let number = || value.parse().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--parent" => args.parent = value.clone(),
            "--change" => args.change = value.clone(),
            "--workloads" if value != "all" => {
                args.workloads = value.split(',').map(String::from).collect()
            }
            "--workloads" => {}
            "--pairs" => args.pairs = number(),
            "--seconds" => args.seconds = number(),
            "--seed" => args.seed = number(),
            _ => usage(),
        }
    }
    if args.parent.is_empty() || args.change.is_empty() || args.pairs == 0 {
        usage();
    }
    args
}

/// One run of `bin` on `workload`: its parsed outcome, or why it failed.
fn run(bin: &str, workload: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    let parsed = parse_run(&String::from_utf8_lossy(&out.stdout), workload);
    match (parsed, out.status.success()) {
        (Ok(run), true) => Ok(run),
        (Ok(_), false) => Err(format!("exit status {}", out.status)),
        (Err(e), _) => Err(e),
    }
}

fn main() {
    let args = parse_args();
    for workload in &args.workloads {
        let mut valid: Vec<(Run, Run)> = Vec::new();
        let mut rejected: Vec<String> = Vec::new();
        for i in 0..args.pairs {
            let seed = args.seed + i;
            let parent_first = i % 2 == 0;
            let (first, second) = match parent_first {
                true => (&args.parent, &args.change),
                false => (&args.change, &args.parent),
            };
            let a = run(first, workload, seed, args.seconds);
            let b = run(second, workload, seed, args.seconds);
            let (parent, change) = if parent_first { (a, b) } else { (b, a) };
            let verdict = parent
                .and_then(|p| change.map(|c| (p, c)))
                .and_then(|(p, c)| check_pair(&p, &c).map(|()| (p, c)));
            match verdict {
                Ok(pair) => valid.push(pair),
                Err(e) => rejected.push(format!("pair {i} (seed {seed}): {e}")),
            }
            eprintln!("{workload}: pair {}/{} done", i + 1, args.pairs);
        }
        println!(
            "\n### {workload}: {} valid pairs of {}",
            valid.len(),
            args.pairs
        );
        println!("| metric | parent median [q1, q3] | change median [q1, q3] | median paired Δ | change won | parent IQR | sign p | verdict |");
        println!("|---|---|---|---|---|---|---|---|");
        for metric in END_TO_END {
            let values: Vec<(f64, f64)> = valid
                .iter()
                .filter_map(|(p, c)| Some((*p.metrics.get(metric)?, *c.metrics.get(metric)?)))
                .collect();
            if !values.is_empty() {
                let c = compare(&values, higher_is_better(metric));
                println!("{}", render(metric, &c, values.len()));
            }
        }
        // Every run's value, pair by pair, for spreads a quartile hides
        // (a bimodal metric, one slow pair).
        for metric in END_TO_END {
            let side = |f: fn(&(Run, Run)) -> &Run| -> Vec<String> {
                let value = |run: &Run| run.metrics.get(metric).map_or("-".into(), f64::to_string);
                valid.iter().map(|pair| value(f(pair))).collect()
            };
            println!(
                "values {metric}: parent {} | change {}",
                side(|p| &p.0).join(" "),
                side(|p| &p.1).join(" ")
            );
        }
        for line in &rejected {
            println!("rejected {line}");
        }
    }
}
