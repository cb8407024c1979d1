//! The self-watchdog: a background sampler that turns the server's own
//! telemetry into structured incidents.
//!
//! When [`crate::ServeConfig::watchdog`] is set, [`crate::Server::new`]
//! spawns one `cx-watchdog` thread holding a `Weak<Server>`. Every
//! [`WatchdogConfig::interval`] it:
//!
//! 1. diffs the end-to-end latency histogram against its previous tick
//!    (bucket-by-bucket, so the quantile is over *this tick's* samples,
//!    not the cumulative distribution) and compares the windowed p99 to
//!    the median of a trailing window of tick p99s,
//! 2. diffs the admission counters for queue saturation and shed bursts,
//! 3. diffs the fault/lifecycle counters for fault bursts,
//!
//! appending a [`cx_obs::IncidentRecord`] to the server's bounded
//! incident log (queryable as `cx.incidents`) for each detector that
//! trips. Detection is threshold-on-delta, never timing-on-wall-clock,
//! so tests drive it deterministically with injected fault storms.
//!
//! The thread takes no lock the serving path holds: every read goes
//! through the same snapshot accessors `cx.*` scans use. With no
//! watchdog configured, no thread exists and nothing is sampled.

use crate::server::Server;
use cx_obs::BucketCount;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

/// Watchdog thresholds and cadence (see the module docs). All detectors
/// compare a per-tick *delta* against a threshold; a threshold of 0
/// disables its detector.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Sampling cadence.
    pub interval: Duration,
    /// Fire `latency_p99_regression` when a tick's windowed p99 is at
    /// least this factor over the trailing window's median tick p99.
    pub p99_regression_factor: f64,
    /// Minimum samples landing within one tick for its p99 to count at
    /// all — high enough that an idle or lightly loaded server never
    /// produces a statistically meaningless regression.
    pub min_samples: u64,
    /// Fire `queue_saturation` when at least this many admissions were
    /// forced to wait within one tick.
    pub queue_depth_threshold: u64,
    /// Fire `shed_burst` when at least this many queries were shed
    /// (`QueueFull`) within one tick.
    pub shed_burst: u64,
    /// Fire `fault_burst` when at least this many faults landed within
    /// one tick (injected faults + transient failures + contained
    /// panics).
    pub fault_burst: u64,
    /// Trailing ticks of p99 history the regression detector compares
    /// against.
    pub window: usize,
    /// Incident records retained (older records fall off; the total
    /// counter keeps counting).
    pub incident_capacity: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            interval: Duration::from_millis(100),
            p99_regression_factor: 4.0,
            min_samples: 50,
            queue_depth_threshold: 64,
            shed_burst: 16,
            fault_burst: 3,
            window: 8,
            incident_capacity: 256,
        }
    }
}

/// A handle on the spawned watchdog thread: signal + join on drop of the
/// owning [`Server`].
pub(crate) struct WatchdogHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    join: Option<JoinHandle<()>>,
    thread_id: ThreadId,
}

impl WatchdogHandle {
    /// Signals the thread to stop and joins it — unless called *on* the
    /// watchdog thread itself (the tick's upgraded `Arc` was the last
    /// strong handle, so `Server::drop` runs there), in which case the
    /// thread is detached; it observes the stop flag and exits on its
    /// own.
    pub(crate) fn stop(mut self) {
        {
            let (lock, cvar) = &*self.stop;
            *lock.lock() = true;
            cvar.notify_all();
        }
        if let Some(join) = self.join.take() {
            if std::thread::current().id() != self.thread_id {
                let _ = join.join();
            }
        }
    }
}

/// Per-thread detector state carried across ticks.
struct WatchdogState {
    config: WatchdogConfig,
    prev_latency: Vec<BucketCount>,
    p99_window: VecDeque<u64>,
    prev_waited: u64,
    prev_shed: u64,
    prev_faults: u64,
}

impl WatchdogState {
    fn new(config: WatchdogConfig) -> Self {
        WatchdogState {
            config,
            prev_latency: Vec::new(),
            p99_window: VecDeque::new(),
            prev_waited: 0,
            prev_shed: 0,
            prev_faults: 0,
        }
    }
}

/// Spawns the watchdog thread over a weak server handle. The thread
/// exits when the server drops (upgrade fails) or the handle signals
/// stop.
pub(crate) fn spawn(server: Weak<Server>, config: WatchdogConfig) -> WatchdogHandle {
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let stop_thread = stop.clone();
    let join = std::thread::Builder::new()
        .name("cx-watchdog".into())
        .spawn(move || {
            let mut state = WatchdogState::new(config);
            loop {
                {
                    let (lock, cvar) = &*stop_thread;
                    let mut stopped = lock.lock();
                    while !*stopped {
                        let (guard, timeout) = cvar.wait_timeout(stopped, config.interval);
                        stopped = guard;
                        if timeout.timed_out() {
                            break;
                        }
                    }
                    if *stopped {
                        break;
                    }
                }
                let Some(server) = server.upgrade() else {
                    break;
                };
                tick(&server, &mut state);
                // `server` drops here; if it was the last strong handle,
                // `Server::drop` runs on this thread and the handle
                // detaches instead of self-joining.
            }
        })
        .expect("spawn cx-watchdog thread");
    let thread_id = join.thread().id();
    WatchdogHandle {
        stop,
        join: Some(join),
        thread_id,
    }
}

/// One sampling tick: diff, detect, append incidents.
fn tick(server: &Server, state: &mut WatchdogState) {
    let cfg = state.config;
    let at_ms = server.now_ms();
    let incidents = server.incidents();

    // Latency p99 regression over this tick's own samples.
    let buckets = server.latency_histogram().nonzero_buckets();
    let delta = diff_buckets(&state.prev_latency, &buckets);
    state.prev_latency = buckets;
    let tick_count: u64 = delta.iter().map(|b| b.count).sum();
    if tick_count >= cfg.min_samples.max(1) {
        let p99 = percentile(&delta, 0.99);
        if cfg.window > 0 && cfg.p99_regression_factor > 0.0 && state.p99_window.len() >= cfg.window
        {
            let mut sorted: Vec<u64> = state.p99_window.iter().copied().collect();
            sorted.sort_unstable();
            let baseline = sorted[sorted.len() / 2];
            let threshold = cfg.p99_regression_factor * baseline as f64;
            if baseline > 0 && p99 as f64 >= threshold {
                incidents.append(
                    "latency_p99_regression",
                    format!(
                        "tick p99 {:.3} ms vs trailing median {:.3} ms over {} samples",
                        p99 as f64 / 1e6,
                        baseline as f64 / 1e6,
                        tick_count
                    ),
                    p99 as f64,
                    threshold,
                    at_ms,
                );
            }
        }
        while state.p99_window.len() >= cfg.window.max(1) {
            state.p99_window.pop_front();
        }
        state.p99_window.push_back(p99);
    }

    // Admission-line saturation and shed bursts.
    let a = server.admission_stats();
    let waited_delta = a.waited.saturating_sub(state.prev_waited);
    state.prev_waited = a.waited;
    if cfg.queue_depth_threshold > 0 && waited_delta >= cfg.queue_depth_threshold {
        incidents.append(
            "queue_saturation",
            format!("{waited_delta} admissions forced to wait in one tick"),
            waited_delta as f64,
            cfg.queue_depth_threshold as f64,
            at_ms,
        );
    }
    let shed_delta = a.shed.saturating_sub(state.prev_shed);
    state.prev_shed = a.shed;
    if cfg.shed_burst > 0 && shed_delta >= cfg.shed_burst {
        incidents.append(
            "shed_burst",
            format!("{shed_delta} queries shed at the admission gate in one tick"),
            shed_delta as f64,
            cfg.shed_burst as f64,
            at_ms,
        );
    }

    // Fault bursts: injected faults plus transient failures plus
    // contained panics, whoever's counting.
    let l = server.lifecycle_stats();
    let faults_now =
        server.fault_stats().map_or(0, |f| f.total()) + l.transient_failures + l.contained_panics;
    let fault_delta = faults_now.saturating_sub(state.prev_faults);
    state.prev_faults = faults_now;
    if cfg.fault_burst > 0 && fault_delta >= cfg.fault_burst {
        incidents.append(
            "fault_burst",
            format!("{fault_delta} faults/transients/panics in one tick"),
            fault_delta as f64,
            cfg.fault_burst as f64,
            at_ms,
        );
    }
}

/// Per-bucket difference `cur - prev`. Both inputs come from
/// [`cx_obs::Histogram::nonzero_buckets`], so they are sorted ascending
/// by bucket midpoint and counts only grow.
fn diff_buckets(prev: &[BucketCount], cur: &[BucketCount]) -> Vec<BucketCount> {
    let mut out = Vec::new();
    let mut pi = 0;
    for b in cur {
        while pi < prev.len() && prev[pi].mid < b.mid {
            pi += 1;
        }
        let old = if pi < prev.len() && prev[pi].mid == b.mid {
            prev[pi].count
        } else {
            0
        };
        if b.count > old {
            out.push(BucketCount {
                count: b.count - old,
                ..*b
            });
        }
    }
    out
}

/// Quantile over a (sorted-by-mid) delta-bucket vector: the midpoint of
/// the bucket where the cumulative count crosses `q`.
fn percentile(buckets: &[BucketCount], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for b in buckets {
        seen += b.count;
        if seen >= target {
            return b.mid;
        }
    }
    buckets.last().map_or(0, |b| b.mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(mid: u64, count: u64) -> BucketCount {
        BucketCount {
            low: mid,
            mid,
            count,
        }
    }

    #[test]
    fn diff_is_per_bucket_and_skips_unchanged() {
        let prev = vec![b(10, 3), b(20, 5)];
        let cur = vec![b(10, 3), b(20, 9), b(40, 2)];
        let d = diff_buckets(&prev, &cur);
        assert_eq!(d, vec![b(20, 4), b(40, 2)]);
        // First tick: everything is new.
        assert_eq!(diff_buckets(&[], &cur), cur);
    }

    #[test]
    fn percentile_crosses_cumulative_count() {
        let d = vec![b(10, 98), b(1000, 2)];
        assert_eq!(percentile(&d, 0.5), 10);
        assert_eq!(percentile(&d, 0.99), 1000);
        assert_eq!(percentile(&[], 0.99), 0);
    }
}
