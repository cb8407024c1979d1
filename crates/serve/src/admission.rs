//! Admission control: a cost-weighted semaphore over query execution.
//!
//! Every query enters execution through [`CostGate::acquire`] (or the
//! lifecycle-aware [`CostGate::acquire_ctx`]) with its optimizer cost
//! estimate (`cx_optimizer::estimate_cost`'s abstract ns) as the
//! weight. The gate admits queries while the sum of in-flight cost
//! stays under capacity, otherwise callers block until enough cost
//! retires — heavyweight scans queue behind each other instead of
//! thrashing one machine, while cheap lookups keep flowing (a cheap query
//! only waits while the gate is genuinely full).
//!
//! Admission is **FIFO**: each caller takes a ticket and is admitted in
//! arrival order. The head of the line blocks followers until it fits —
//! deliberate head-of-line blocking, because the alternative (letting
//! cheap queries overtake) starves heavy queries indefinitely under a
//! steady stream of cheap traffic. A query costlier than the whole
//! capacity is admitted when the gate is otherwise empty (it would never
//! fit; running it alone is the best the server can do).
//!
//! Two lifecycle policies bound the line itself:
//!
//! * **Load shedding** — [`CostGate::acquire_ctx`] takes a `max_queued`
//!   bound; a query that *would block* while `max_queued` others are
//!   already waiting is refused immediately with
//!   [`QueryError::QueueFull`] instead of queueing unboundedly (the
//!   backpressure primitive a wire protocol needs).
//! * **Deadline/cancellation-aware waiting** — a waiter whose
//!   [`QueryContext`] dies while queued abandons its ticket (the FIFO
//!   line skips it) and returns the typed error rather than being
//!   admitted post-mortem.
//!
//! Lock acquisitions and waits recover from poisoning: the protected
//! state is a handful of counters that are always left consistent, so a
//! panicked peer must not brick admission for every later query.
//!
//! Deadline and cancel-poll waits read the time only through the
//! `Clock` handed to the gate, which is what lets tests expire a queued
//! waiter without sleeping.

use cx_storage::{QueryContext, QueryError, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the gate's waits read the time.
pub(crate) trait Clock: Send + Sync {
    /// The current instant on this clock.
    fn now(&self) -> Instant;
    /// How long a waiter that wants to wake at `deadline` may block on
    /// its condvar before it must read `now` again.
    fn park(&self, deadline: Instant) -> Duration;
}

/// The real clock: what [`CostGate::new`] runs on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn park(&self, deadline: Instant) -> Duration {
        deadline.saturating_duration_since(Instant::now())
    }
}

/// How often a blocked waiter re-checks its cancellation token.
const CANCEL_POLL: Duration = Duration::from_millis(5);

cx_obs::metric_family! {
    /// Aggregate admission counters (see [`CostGate`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct AdmissionStats, counters AdmissionCounters {
        /// Queries admitted so far.
        admitted: counter "cx_serve_admission_admitted_total" "Queries admitted",
        /// Queries that had to block before admission.
        waited: counter "cx_serve_admission_waited_total" "Admissions that had to wait",
        /// Queries refused with `QueueFull` (load shedding).
        shed: counter "cx_serve_admission_shed_total" "Queries shed at the admission gate",
        /// Waiters that abandoned the line (deadline passed / cancelled).
        abandoned: counter "cx_serve_admission_abandoned_total"
            "Admission waits abandoned (deadline/cancel)",
    }
    supplied {
        /// Cost currently executing.
        in_use: f64 => gauge "cx_serve_admission_in_use" "Admitted cost currently executing",
        /// Permits currently held.
        active: u64 => gauge "cx_serve_admission_active" "Queries currently holding permits",
        /// The gate's configured capacity (infinite = admission disabled).
        capacity: f64 => gauge "cx_serve_admission_capacity" "Total admission capacity",
    }
}

#[derive(Default)]
struct Gate {
    in_use: f64,
    active: u64,
    /// Next ticket to hand out (arrival order).
    next_ticket: u64,
    /// Ticket currently at the head of the admission line.
    now_serving: u64,
    /// Callers currently blocked in the line.
    waiting: usize,
    /// Tickets whose holders gave up (deadline/cancel); the line skips
    /// them as `now_serving` reaches each.
    abandoned: HashSet<u64>,
}

impl Gate {
    /// Skips `now_serving` past abandoned tickets so the line cannot
    /// stall behind a waiter that already left.
    fn skip_abandoned(&mut self) {
        while self.abandoned.remove(&self.now_serving) {
            self.now_serving += 1;
        }
    }
}

/// A cost-weighted admission semaphore.
pub struct CostGate {
    capacity: f64,
    gate: Mutex<Gate>,
    cv: Condvar,
    clock: Arc<dyn Clock>,
    counters: AdmissionCounters,
}

/// An admitted query's slot; releases its cost on drop.
pub struct Permit<'a> {
    gate: &'a CostGate,
    cost: f64,
}

impl CostGate {
    /// A gate admitting up to `capacity` total estimated cost at once
    /// (non-finite or non-positive capacities mean "unlimited"), on the
    /// real clock.
    pub fn new(capacity: f64) -> Self {
        Self::with_clock(capacity, Arc::new(SystemClock))
    }

    /// A gate whose queued waiters measure deadlines on `clock`.
    pub(crate) fn with_clock(capacity: f64, clock: Arc<dyn Clock>) -> Self {
        let capacity = if capacity.is_finite() && capacity > 0.0 {
            capacity
        } else {
            f64::INFINITY
        };
        CostGate {
            capacity,
            gate: Mutex::new(Gate::default()),
            cv: Condvar::new(),
            clock,
            counters: AdmissionCounters::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Blocks until it is this caller's turn (FIFO) *and* `cost` fits,
    /// then returns the RAII permit. Unbounded queue, no deadline — the
    /// pre-lifecycle entry point, kept for callers without a context.
    pub fn acquire(&self, cost: f64) -> Permit<'_> {
        match self.acquire_ctx(cost, &QueryContext::unbounded(), 0) {
            Ok(permit) => permit,
            // Unbounded context + unbounded queue cannot be refused.
            Err(_) => unreachable!("unbounded acquire cannot fail"),
        }
    }

    /// Lifecycle-aware admission: FIFO like [`acquire`](Self::acquire),
    /// but
    ///
    /// * refuses immediately with [`QueryError::QueueFull`] when the
    ///   query would block behind `max_queued` or more waiters
    ///   (`max_queued == 0` means unbounded);
    /// * gives up with the typed lifecycle error when `ctx`'s deadline
    ///   passes or its token is cancelled while queued, abandoning the
    ///   ticket so the line flows past it.
    pub fn acquire_ctx(
        &self,
        cost: f64,
        ctx: &QueryContext,
        max_queued: usize,
    ) -> Result<Permit<'_>> {
        let cost = if cost.is_finite() {
            cost.max(1.0)
        } else {
            self.capacity
        };
        ctx.check()?;
        let mut gate = self.gate.lock();
        gate.skip_abandoned();
        let would_block = gate.now_serving != gate.next_ticket
            || (gate.active > 0 && gate.in_use + cost > self.capacity);
        if would_block && max_queued > 0 && gate.waiting >= max_queued {
            let queued = gate.waiting;
            drop(gate);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(QueryError::QueueFull {
                queued,
                max: max_queued,
            }
            .into());
        }
        let ticket = gate.next_ticket;
        gate.next_ticket += 1;
        let mut blocked = false;
        // FIFO: wait for our turn, then for room. An oversized query
        // (cost > capacity) passes once the gate is empty: `active > 0`
        // keeps the loop from spinning forever on it.
        loop {
            gate.skip_abandoned();
            if gate.now_serving == ticket
                && !(gate.active > 0 && gate.in_use + cost > self.capacity)
            {
                break;
            }
            // The deadline is read on the gate's clock; cancellation and
            // budget (and the deadline by wall time) on the context.
            let alive = match ctx.deadline() {
                Some(d) if self.clock.now() >= d => Err(QueryError::DeadlineExceeded.into()),
                _ => ctx.check(),
            };
            if let Err(e) = alive {
                // Leave the line: mark the ticket abandoned so the FIFO
                // skips it, and wake peers in case we were its head.
                gate.abandoned.insert(ticket);
                gate.skip_abandoned();
                if blocked {
                    gate.waiting -= 1;
                }
                drop(gate);
                self.counters.abandoned.fetch_add(1, Ordering::Relaxed);
                self.cv.notify_all();
                return Err(e);
            }
            if !blocked {
                blocked = true;
                gate.waiting += 1;
            }
            // Bounded wait so cancellation/deadline stay responsive even
            // if no peer ever notifies.
            let poll = self.clock.now() + CANCEL_POLL;
            let wake = ctx.deadline().map_or(poll, |d| d.min(poll));
            let timeout = self.clock.park(wake).max(Duration::from_micros(100));
            gate = self.cv.wait_timeout(gate, timeout).0;
        }
        if blocked {
            gate.waiting -= 1;
        }
        gate.now_serving += 1;
        gate.in_use += cost;
        gate.active += 1;
        drop(gate);
        // Wake the next ticket in line (it may also fit right now).
        self.cv.notify_all();
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        if blocked {
            self.counters.waited.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Permit { gate: self, cost })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        let gate = self.gate.lock();
        self.counters
            .snapshot(gate.in_use, gate.active, self.capacity)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut gate = self.gate.gate.lock();
        gate.active = gate.active.saturating_sub(1);
        // Adding and subtracting unequal f64 costs leaves rounding
        // residue; a gate with no permits out holds exactly nothing.
        gate.in_use = if gate.active == 0 {
            0.0
        } else {
            (gate.in_use - self.cost).max(0.0)
        };
        drop(gate);
        self.gate.cv.notify_all();
    }
}

/// Test support for this crate's clock-driven and concurrent tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A clock that moves only when told to: deadlines measured on it
    /// expire exactly when a test says so. Waiters re-read it every
    /// [`ManualClock::POLL`] of real time, so an advance is noticed
    /// promptly and no outcome depends on how long that takes.
    #[derive(Debug)]
    pub(crate) struct ManualClock {
        base: Instant,
        advanced_ns: AtomicU64,
    }

    impl ManualClock {
        const POLL: Duration = Duration::from_micros(200);

        pub(crate) fn new() -> Arc<Self> {
            Arc::new(ManualClock {
                base: SystemClock.now(),
                advanced_ns: AtomicU64::new(0),
            })
        }

        pub(crate) fn advance(&self, by: Duration) {
            self.advanced_ns
                .fetch_add(by.as_nanos() as u64, Ordering::SeqCst);
        }
    }

    impl Clock for ManualClock {
        fn now(&self) -> Instant {
            self.base + Duration::from_nanos(self.advanced_ns.load(Ordering::SeqCst))
        }

        fn park(&self, _deadline: Instant) -> Duration {
            Self::POLL
        }
    }

    /// Yields until `cond` holds: the tests' way of ordering threads on
    /// observed state instead of on elapsed time.
    pub(crate) fn spin_until(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..50_000_000u64 {
            if cond() {
                return;
            }
            std::thread::yield_now();
        }
        panic!("gave up waiting until {what}");
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{spin_until, ManualClock};
    use super::*;
    use cx_storage::{CancelToken, Error};
    use std::sync::atomic::AtomicUsize;

    /// Callers blocked in `gate`'s line.
    fn queued(gate: &CostGate) -> usize {
        gate.gate.lock().waiting
    }

    #[test]
    fn admits_within_capacity_without_blocking() {
        let gate = CostGate::new(100.0);
        let a = gate.acquire(40.0);
        let b = gate.acquire(40.0);
        let s = gate.stats();
        assert_eq!(s.active, 2);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.waited, 0);
        drop(a);
        drop(b);
        assert_eq!(gate.stats().active, 0);
        assert_eq!(gate.stats().in_use, 0.0);
    }

    #[test]
    fn oversized_query_admitted_when_alone() {
        let gate = CostGate::new(10.0);
        let p = gate.acquire(1e9);
        assert_eq!(gate.stats().active, 1);
        drop(p);
    }

    #[test]
    fn over_capacity_blocks_until_release() {
        let gate = Arc::new(CostGate::new(100.0));
        let order = Arc::new(AtomicUsize::new(0));
        let first = gate.acquire(80.0);
        let t = {
            let gate = gate.clone();
            let order = order.clone();
            std::thread::spawn(move || {
                let _p = gate.acquire(80.0); // must wait for `first`
                order.fetch_add(1, Ordering::SeqCst);
            })
        };
        // Once the second query is in the line it has seen the gate
        // full; it must still be there when the first releases.
        spin_until("the second query queues", || queued(&gate) == 1);
        assert_eq!(
            order.load(Ordering::SeqCst),
            0,
            "second query jumped the gate"
        );
        drop(first);
        t.join().unwrap();
        assert_eq!(order.load(Ordering::SeqCst), 1);
        assert_eq!(gate.stats().waited, 1);
        assert_eq!(gate.stats().admitted, 2);
    }

    #[test]
    fn zero_capacity_means_unlimited() {
        let gate = CostGate::new(0.0);
        let _a = gate.acquire(1e18);
        let _b = gate.acquire(1e18);
        assert_eq!(gate.stats().active, 2);
    }

    #[test]
    fn queue_bound_sheds_instead_of_queueing() {
        let gate = Arc::new(CostGate::new(10.0));
        let hold = gate.acquire(10.0); // gate full
                                       // One waiter occupies the single allowed queue slot.
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                gate.acquire_ctx(10.0, &QueryContext::unbounded(), 1)
                    .map(|_| ())
            })
        };
        spin_until("the waiter queues", || queued(&gate) == 1);
        // The next bounded query must be refused immediately.
        let r = gate.acquire_ctx(10.0, &QueryContext::unbounded(), 1);
        match r {
            Err(Error::Query(QueryError::QueueFull { queued, max })) => {
                assert_eq!(queued, 1);
                assert_eq!(max, 1);
            }
            other => panic!("expected QueueFull, got {:?}", other.map(|_| ())),
        }
        assert_eq!(gate.stats().shed, 1);
        drop(hold);
        waiter.join().unwrap().unwrap();
        assert_eq!(gate.stats().admitted, 2);
    }

    #[test]
    fn admission_does_not_shed_when_gate_is_free() {
        // max_queued bounds the *line*, not concurrency: with room in the
        // gate no query is refused.
        let gate = CostGate::new(100.0);
        let a = gate
            .acquire_ctx(40.0, &QueryContext::unbounded(), 1)
            .unwrap();
        let b = gate
            .acquire_ctx(40.0, &QueryContext::unbounded(), 1)
            .unwrap();
        assert_eq!(gate.stats().shed, 0);
        drop(a);
        drop(b);
    }

    #[test]
    fn queued_waiter_respects_deadline() {
        // An hour away by wall time: only the gate's clock can expire it.
        let clock = ManualClock::new();
        let gate = CostGate::with_clock(10.0, clock.clone());
        let hold = gate.acquire(10.0);
        let timeout = Duration::from_secs(3600);
        let ctx = QueryContext::unbounded().with_deadline(clock.now() + timeout);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.acquire_ctx(10.0, &ctx, 0).map(|_| ()));
            spin_until("the waiter queues", || queued(&gate) == 1);
            clock.advance(timeout);
            assert_eq!(
                waiter
                    .join()
                    .unwrap()
                    .err()
                    .and_then(|e| e.as_query().cloned()),
                Some(QueryError::DeadlineExceeded)
            );
        });
        assert_eq!(gate.stats().abandoned, 1);
        // The line skips the abandoned ticket: the next caller admits
        // as soon as the holder releases.
        drop(hold);
        let p = gate
            .acquire_ctx(5.0, &QueryContext::unbounded(), 0)
            .unwrap();
        drop(p);
    }

    #[test]
    fn queued_waiter_observes_cancellation() {
        let gate = CostGate::with_clock(10.0, ManualClock::new());
        let hold = gate.acquire(10.0);
        let token = CancelToken::new();
        let ctx = QueryContext::unbounded().with_cancel(token.clone());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.acquire_ctx(10.0, &ctx, 0).map(|_| ()));
            spin_until("the waiter queues", || queued(&gate) == 1);
            token.cancel();
            assert_eq!(
                waiter
                    .join()
                    .unwrap()
                    .err()
                    .and_then(|e| e.as_query().cloned()),
                Some(QueryError::Cancelled)
            );
        });
        assert_eq!(gate.stats().abandoned, 1);
        drop(hold);
    }

    #[test]
    fn poisoned_gate_lock_recovers() {
        // A thread panicking while holding the gate must not brick
        // admission for every later query (regression test for the
        // poisoning-recovery audit).
        let gate = Arc::new(CostGate::new(100.0));
        let g2 = gate.clone();
        let _ = std::thread::spawn(move || {
            let _guard = g2.gate.lock();
            panic!("poison the gate");
        })
        .join();
        assert!(gate.gate.is_poisoned(), "gate mutex should be poisoned");
        let p = gate.acquire(10.0);
        assert_eq!(gate.stats().active, 1);
        drop(p);
        assert_eq!(gate.stats().active, 0);
    }

    #[test]
    fn already_expired_context_is_refused_before_queueing() {
        let gate = CostGate::new(100.0);
        let ctx = QueryContext::unbounded().with_timeout(Duration::ZERO);
        assert!(gate.acquire_ctx(1.0, &ctx, 0).is_err());
        assert_eq!(gate.stats().admitted, 0);
    }
}
