//! One driver for both loops. A closed loop sends a client's next
//! statement when the previous one returns; an open loop serves a
//! precomputed due-time schedule and times each statement from when it
//! was *due*, so a stall shows up as latency on every statement that
//! queued behind it (coordinated omission is counted, not hidden).

use cx_embed::rng::SplitMix64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The system under test, as the driver sees it.
pub trait System: Sync {
    /// Runs statement `index` of `client`'s stream; `false` is a failed
    /// operation (error, refusal or wrong answer).
    fn call(&self, client: usize, index: u64) -> bool;
}

/// One statement's timing, in nanoseconds since the loop started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub client: usize,
    pub index: u64,
    /// When the statement should have started: its schedule slot in an
    /// open loop, the moment the client was free in a closed loop.
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// A statement that started more than this after it was due is late.
const LATE_NS: u64 = 1_000_000;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Runs `clients` closed-loop clients for `duration`; client `c` sends
/// statements `first, first + 1, ..` of its own stream.
pub fn closed_loop(
    sys: &dyn System,
    clients: usize,
    first: u64,
    duration: Duration,
) -> Vec<Sample> {
    let origin = Instant::now();
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut index = first;
                    loop {
                        let start = origin.elapsed();
                        if start >= duration {
                            return samples;
                        }
                        let ok = sys.call(client, index);
                        let (start_ns, end_ns) = (ns(start), ns(origin.elapsed()));
                        samples.push(Sample {
                            client,
                            index,
                            due_ns: start_ns,
                            start_ns,
                            end_ns,
                            ok,
                        });
                        index += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("closed-loop client panicked"));
        }
    });
    all
}

/// Due times (ns) of a Poisson arrival process at `rate` per second over
/// `duration`, a pure function of `seed`.
pub fn poisson_schedule(rate: f64, duration: Duration, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= duration.as_secs_f64() {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// Serves `schedule` (sorted due times) with `workers` threads; statement
/// `i` of the schedule is `sys.call(worker, first + i)`. Statements not
/// started by `grace` after the last due time are returned as failed.
pub fn open_loop(
    sys: &dyn System,
    workers: usize,
    first: u64,
    schedule: &[u64],
    grace: Duration,
) -> Vec<Sample> {
    let origin = Instant::now();
    let deadline = schedule.last().copied().unwrap_or(0) + ns(grace);
    let next = AtomicUsize::new(0);
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due_ns) = schedule.get(slot) else {
                            return samples;
                        };
                        let index = first + slot as u64;
                        wait_until(origin, due_ns);
                        let start_ns = ns(origin.elapsed());
                        if start_ns > deadline {
                            samples.push(Sample {
                                client,
                                index,
                                due_ns,
                                start_ns,
                                end_ns: start_ns,
                                ok: false,
                            });
                            continue;
                        }
                        let ok = sys.call(client, index);
                        samples.push(Sample {
                            client,
                            index,
                            due_ns,
                            start_ns,
                            end_ns: ns(origin.elapsed()),
                            ok,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("open-loop worker panicked"));
        }
    });
    all.sort_by_key(|s| s.index);
    all
}

/// Sleeps to just before `due_ns`, then spins: `thread::sleep` alone
/// overshoots by more than the 1 ms lateness limit under load.
fn wait_until(origin: Instant, due_ns: u64) {
    const SPIN_NS: u64 = 200_000;
    loop {
        let now = ns(origin.elapsed());
        if now >= due_ns {
            return;
        }
        if due_ns - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What one measured window saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Statements due in the window.
    pub attempted: u64,
    pub failed: u64,
    /// Correct completions per second of window.
    pub qps: f64,
    pub p50_ms: f64,
    /// Latency samples behind the percentiles (correct completions).
    pub samples: usize,
    /// Share of statements started more than 1 ms after they were due.
    pub late_share: f64,
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 95th percentile of an ascending slice, as the mean of the order
/// statistics from the 92.5th to the 97.5th percentile. With a few hundred
/// samples and a host whose stalls hit about one statement in twenty, the
/// single nearest-rank statistic flips between the stalled and unstalled
/// modes from run to run; the window mean does not.
pub fn smoothed_p95(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = |q: f64| ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let window = &sorted[rank(0.925) - 1..rank(0.975)];
    window.iter().sum::<u64>() as f64 / window.len() as f64
}

/// Latencies (end − due, ascending) of the correct statements due in
/// `[from, to)`.
pub fn latencies(samples: &[Sample], from: Duration, to: Duration) -> Vec<u64> {
    let mut out: Vec<u64> = in_window(samples, from, to)
        .filter(|s| s.ok)
        .map(|s| s.end_ns - s.due_ns)
        .collect();
    out.sort_unstable();
    out
}

fn in_window(samples: &[Sample], from: Duration, to: Duration) -> impl Iterator<Item = &Sample> {
    let (from, to) = (ns(from), ns(to));
    samples
        .iter()
        .filter(move |s| s.due_ns >= from && s.due_ns < to)
}

/// Summarizes the statements due in `[from, to)`.
pub fn summarize(samples: &[Sample], from: Duration, to: Duration) -> Summary {
    let attempted = in_window(samples, from, to).count() as u64;
    let late = in_window(samples, from, to)
        .filter(|s| s.start_ns - s.due_ns > LATE_NS)
        .count();
    let sorted = latencies(samples, from, to);
    let ms = |q| {
        if sorted.is_empty() {
            0.0
        } else {
            percentile(&sorted, q) as f64 / 1e6
        }
    };
    Summary {
        attempted,
        failed: attempted - sorted.len() as u64,
        qps: sorted.len() as f64 / (to - from).as_secs_f64(),
        p50_ms: ms(0.50),
        samples: sorted.len(),
        late_share: late as f64 / attempted.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake system with a known service time and an optional stall.
    struct Fake {
        service: Duration,
        stall_at: Option<u64>,
        stall: Duration,
        fail_every: Option<u64>,
    }

    impl System for Fake {
        fn call(&self, _client: usize, index: u64) -> bool {
            let busy = if self.stall_at == Some(index) {
                self.stall
            } else {
                self.service
            };
            let start = Instant::now();
            while start.elapsed() < busy {
                std::hint::spin_loop();
            }
            self.fail_every.is_none_or(|n| !index.is_multiple_of(n))
        }
    }

    fn fake(service_ms: u64) -> Fake {
        Fake {
            service: Duration::from_millis(service_ms),
            stall_at: None,
            stall: Duration::ZERO,
            fail_every: None,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn smoothed_p95_averages_the_ranks_around_the_95th() {
        let v: Vec<u64> = (1..=200).collect();
        // Ranks 185..=195 of 200.
        assert_eq!(smoothed_p95(&v), 190.0);
        assert_eq!(smoothed_p95(&[7]), 7.0);
        assert_eq!(smoothed_p95(&[]), 0.0);
        // One stalled statement in twenty does not decide the estimate alone.
        let mut stalls: Vec<u64> = vec![100; 190];
        stalls.extend(vec![300; 10]);
        assert!(
            (150.0..250.0).contains(&smoothed_p95(&stalls)),
            "{}",
            smoothed_p95(&stalls)
        );
    }

    #[test]
    fn closed_loop_reports_service_time_and_sample_count() {
        let samples = closed_loop(&fake(2), 1, 0, Duration::from_millis(400));
        let s = summarize(
            &samples,
            Duration::from_millis(100),
            Duration::from_millis(400),
        );
        // 2 ms service, one client: ~150 statements in the 300 ms window.
        assert!((120..=150).contains(&s.samples), "{s:?}");
        assert_eq!(s.attempted, s.samples as u64);
        assert_eq!(s.failed, 0);
        assert!((2.0..2.6).contains(&s.p50_ms), "{s:?}");
        assert!((s.qps - s.samples as f64 / 0.3).abs() < 1e-9);
        assert_eq!(s.late_share, 0.0, "a closed loop is never late");
        let indices: Vec<u64> = samples.iter().map(|x| x.index).collect();
        assert_eq!(
            indices,
            (0..samples.len() as u64).collect::<Vec<_>>(),
            "one stream, in order"
        );
    }

    #[test]
    fn failures_count_against_attempts_and_carry_no_latency() {
        let sys = Fake {
            fail_every: Some(4),
            ..fake(1)
        };
        let samples = closed_loop(&sys, 1, 0, Duration::from_millis(100));
        let s = summarize(&samples, Duration::ZERO, Duration::from_millis(100));
        assert!(
            s.failed >= s.attempted / 4 && s.failed <= s.attempted / 4 + 1,
            "{s:?}"
        );
        assert_eq!(s.samples as u64, s.attempted - s.failed);
    }

    #[test]
    fn open_loop_stall_delays_every_statement_queued_behind_it() {
        // 100 statements/s on a uniform schedule, 1 ms service, one worker;
        // statement 20 stalls for 100 ms, so the ~10 statements that fall
        // due meanwhile wait for it and their latency includes that wait.
        let schedule: Vec<u64> = (0..100u64).map(|i| i * 10_000_000).collect();
        let sys = Fake {
            stall_at: Some(20),
            stall: Duration::from_millis(100),
            ..fake(1)
        };
        let samples = open_loop(&sys, 1, 0, &schedule, Duration::from_secs(2));
        assert_eq!(samples.len(), 100);
        let s = summarize(&samples, Duration::ZERO, Duration::from_secs(1));
        assert_eq!((s.attempted, s.failed), (100, 0));
        let delayed = samples
            .iter()
            .filter(|x| x.end_ns - x.due_ns > 10_000_000)
            .count();
        assert!((9..=13).contains(&delayed), "delayed = {delayed}");
        // The statement right behind the stall waited ~90 ms for it.
        let behind = samples[21];
        assert!(behind.end_ns - behind.due_ns > 80_000_000, "{behind:?}");
        assert!((0.08..=0.13).contains(&s.late_share), "{s:?}");
        let p95_ms =
            smoothed_p95(&latencies(&samples, Duration::ZERO, Duration::from_secs(1))) / 1e6;
        assert!(s.p50_ms < 3.0 && p95_ms > 40.0, "{s:?} p95 {p95_ms}");
    }

    #[test]
    fn open_loop_fails_what_it_cannot_start_within_the_grace() {
        // 10 ms of service against a 1 ms schedule: the backlog outlives
        // the grace period and the rest of the schedule counts as failed.
        let schedule: Vec<u64> = (0..100u64).map(|i| i * 1_000_000).collect();
        let samples = open_loop(&fake(10), 1, 0, &schedule, Duration::from_millis(100));
        let s = summarize(&samples, Duration::ZERO, Duration::from_secs(1));
        assert_eq!(s.attempted, 100);
        assert!((70..=90).contains(&s.failed), "{s:?}");
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_at_rate() {
        let a = poisson_schedule(1000.0, Duration::from_secs(2), 5);
        assert_eq!(a, poisson_schedule(1000.0, Duration::from_secs(2), 5));
        assert_ne!(a, poisson_schedule(1000.0, Duration::from_secs(2), 6));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((1850..=2150).contains(&a.len()), "{}", a.len());
    }
}
