//! The engine's one benchmark: builds the data from a seed, drives SQL
//! text through `Session::sql` on a default-configured `Server`, checks
//! the answers against the bare engine, and prints every metric by name
//! with its unit. See `benchmark/README.md`.

mod alloc;
mod driver;
mod probes;
mod repeat;
mod spans;
mod sut;
mod workloads;

use driver::Sample;
use std::time::{Duration, Instant};
use sut::Sut;
use workloads::{Arrival, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Unmeasured lead-in of every driver window.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per untraced run, each measured for a third of the window.
const SETUPS: usize = 3;
/// How long after the window an open-loop statement may still start.
const GRACE: Duration = Duration::from_secs(2);

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run measured and checked.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Statements due in the measured windows, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub verdict: sut::Verdict,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: cx-benchmark --workload <name|all> --seed <u64> [--seconds <n>] [--trace <0|1>] [--repeat <n>]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 18,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let number = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number().max(1),
            "--trace" => args.trace = number() != 0,
            "--repeat" => args.repeat = number().max(1) as usize,
            _ => usage(),
        }
    }
    args
}

/// Runs one driver window of `warmup + window` and returns its samples.
pub fn drive(sut: &Sut, first: u64, seed: u64, warmup: Duration, window: Duration) -> Vec<Sample> {
    match sut.workload.arrival {
        Arrival::Closed { clients } => driver::closed_loop(sut, clients, first, warmup + window),
        Arrival::Open { workers, rate } => {
            let schedule = driver::poisson_schedule(rate, warmup + window, seed ^ first);
            driver::open_loop(sut, workers, first, &schedule, GRACE)
        }
    }
}

/// The upper median; 0 of no values.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn first_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Printed with every result: what the numbers were measured on.
fn print_host(workload: Workload) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = workload.arrival.sessions();
    println!(
        "host nproc={nproc} simd=\"{}\" rustc=\"{}\" commit={}",
        cx_vector::simd::KernelDispatch::active().report(),
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    if nproc < clients {
        println!("warning: nproc {nproc} < clients {clients}: clients share cores, latencies include time-slicing");
    }
}

/// The untraced run: every end-to-end metric. The window is split over
/// `SETUPS` fresh set-ups of the same seed: where a set-up's data lands in
/// memory moves its latencies by a few percent for as long as it lives,
/// and the host has slow phases of many seconds, so `qps` and `p50_ms` are
/// the median over the set-ups and `setup_s` the median set-up time.
fn end_to_end(workload: Workload, seed: u64, window: Duration) -> Outcome {
    let slice = window / SETUPS as u32;
    let (mut setups, mut qps, mut p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut pooled) = (0, 0, Vec::new());
    let mut sut = None;
    for _ in 0..SETUPS {
        drop(sut.take());
        let start = Instant::now();
        let fresh = sut.insert(Sut::set_up(workload, seed));
        setups.push(start.elapsed().as_secs_f64());
        let samples = drive(fresh, 0, seed, WARMUP, slice);
        let summary = driver::summarize(&samples, WARMUP, WARMUP + slice);
        println!(
            "slice set-up {:.3} s, {:.2} statements/s, p50 {:.3} ms, {} samples",
            setups[setups.len() - 1],
            summary.qps,
            summary.p50_ms,
            summary.samples
        );
        qps.push(summary.qps);
        p50.push(summary.p50_ms);
        attempted += summary.attempted;
        failed += summary.failed;
        pooled.extend(driver::latencies(&samples, WARMUP, WARMUP + slice));
    }
    let verdict = sut.expect("SETUPS > 0").check();
    pooled.sort_unstable();
    println!(
        "samples {} ({} beyond p95)",
        pooled.len(),
        pooled.len() / 20
    );
    Outcome {
        metrics: vec![
            ("qps", median(qps), "statements/s"),
            ("p50_ms", median(p50), "ms"),
            ("p95_ms", driver::smoothed_p95(&pooled) / 1e6, "ms"),
            ("setup_s", median(setups), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
        attempted,
        failed,
        verdict,
    }
}

/// Runs one workload in this process; returns the exit code.
fn run(workload: Workload, args: &Args) -> i32 {
    print_host(workload);
    let window = Duration::from_secs(args.seconds);
    let Outcome {
        metrics,
        attempted,
        failed,
        verdict,
    } = if args.trace {
        probes::traced(workload, args.seed, window)
    } else {
        end_to_end(workload, args.seed, window)
    };
    // Operations are the timed statements plus the verified answers.
    let attempted = attempted + verdict.checked;
    let failed = failed + verdict.wrong;
    println!(
        "workload {} seed {} attempted {attempted} failed {failed} failed_share {:.6} result_digest {:016x}",
        workload.name,
        args.seed,
        failed as f64 / attempted.max(1) as f64,
        verdict.digest
    );
    for (name, value, unit) in &metrics {
        println!("metric {} {name} {value} {unit}", workload.name);
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    exit_code(attempted, failed)
}

/// A failed or wrong statement fails the command.
fn exit_code(attempted: u64, failed: u64) -> i32 {
    i32::from(attempted == 0 || failed > 0)
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let chosen: Vec<Workload> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        name => vec![workloads::by_name(name).unwrap_or_else(|| usage())],
    };
    // Several runs are a process each, so that `peak_rss_mb` and set-up
    // start from a clean address space.
    let code = if chosen.len() > 1 || args.repeat > 1 {
        let names: Vec<&str> = chosen.iter().map(|w| w.name).collect();
        repeat::run_sets(&names, args.seed, args.seconds, args.trace, args.repeat)
    } else {
        run(chosen[0], &args)
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_fails_the_command_and_raises_failed_share() {
        assert_eq!(exit_code(100, 0), 0);
        assert_ne!(exit_code(100, 1), 0);
        assert_ne!(exit_code(0, 0), 0, "nothing attempted is not a pass");
        let json = result_json(false, 100, 1, &[("qps", 12.5, "statements/s")]);
        assert_eq!(
            json,
            "{\"correct\": false, \"attempted\": 100, \"failed\": 1, \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"statements/s\"}}}"
        );
    }
}
