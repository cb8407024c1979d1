//! The coalescing primitive of the serving layer.
//!
//! Amortizing work across concurrent queries — one model pass for many
//! embed requests — is a leader/follower protocol, implemented here as
//! the crate-internal `Coalescer`:
//!
//! 1. **Join or lead.** The first request to arrive when no group is open
//!    opens one and becomes its leader; later arrivals join as followers.
//!    Each request carries a weight; a group that has reached the weight
//!    limit takes no more members, so a late arrival opens the next
//!    group (the limit binds at join time, not only at seal time).
//! 2. **Seal** (`seal_due`, a pure function of the group and the
//!    time): on **size** (weight limit reached) or when the **linger**
//!    window after the leader's arrival has passed.
//! 3. **Drain.** The leader runs the caller's drain over the whole group
//!    on its own thread — no background thread, nothing to shut down —
//!    and hands every member the result at its index.
//! 4. **Contain.** A drain that panics or under-delivers costs its group,
//!    not the server: every member without a result gets the coalescer's
//!    failure value, no follower stays parked, and the next group starts
//!    clean.
//!
//! Two locks, never held together: the open-group slot and each group's
//! state. Both recover from poisoning. Drains run outside both.
//!
//! The only time source is the `Clock` handed to the constructor, so
//! every rule above is tested on a manual clock without sleeping.
//! [`crate::EmbedBatcher`] is the client; [`crate::CostGate`] admits
//! rather than coalesces, so it only shares the clock.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::panic::AssertUnwindSafe;
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the serving layer's waits read the time.
pub(crate) trait Clock: Send + Sync {
    /// The current instant on this clock.
    fn now(&self) -> Instant;
    /// How long a waiter that wants to wake at `deadline` may block on
    /// its condvar before it must read `now` again.
    fn park(&self, deadline: Instant) -> Duration;
}

/// The real clock: what [`crate::Server::new`] runs on.
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

/// The seal policy: whether a group of `weight` (limit `max_weight`)
/// whose leader lingers until `deadline` seals at `now` — on size, or
/// because the linger window has passed.
pub(crate) fn seal_due(weight: usize, max_weight: usize, deadline: Instant, now: Instant) -> bool {
    weight >= max_weight || now >= deadline
}

struct GroupState<Req, Resp> {
    /// Requests in arrival order; taken by the leader when it seals.
    reqs: Vec<Req>,
    /// Sum of the members' weights.
    weight: usize,
    /// Set by the leader; later arrivals open the next group.
    sealed: bool,
    /// One slot per member, filled by the leader after the drain.
    results: Vec<Option<Resp>>,
}

struct Group<Req, Resp> {
    state: Mutex<GroupState<Req, Resp>>,
    cv: Condvar,
}

impl<Req, Resp> Default for Group<Req, Resp> {
    fn default() -> Self {
        Group {
            state: Mutex::new(GroupState {
                reqs: Vec::new(),
                weight: 0,
                sealed: false,
                results: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }
}

/// Leader/follower group former (see the module docs).
pub(crate) struct Coalescer<Req, Resp> {
    max_weight: usize,
    linger: Duration,
    clock: Arc<dyn Clock>,
    /// What a member gets when its group's drain produced nothing for it.
    failed: fn() -> Resp,
    /// The open (joinable) group, if any.
    open: Mutex<Option<Arc<Group<Req, Resp>>>>,
}

impl<Req, Resp> Coalescer<Req, Resp> {
    /// A coalescer sealing groups at `max_weight` (clamped to at least 1)
    /// or `linger` after their leader arrived, timed on `clock`.
    pub(crate) fn new(
        max_weight: usize,
        linger: Duration,
        clock: Arc<dyn Clock>,
        failed: fn() -> Resp,
    ) -> Self {
        Coalescer {
            max_weight: max_weight.max(1),
            linger,
            clock,
            failed,
            open: Mutex::new(None),
        }
    }

    /// Joins (or opens) the open group and blocks until this request's
    /// result is ready. The leader alone runs `drain`, over the whole
    /// group in arrival order (its own request first); the results must
    /// be index-aligned with the requests.
    pub(crate) fn submit(
        &self,
        req: Req,
        weight: usize,
        drain: impl FnOnce(Vec<Req>) -> Vec<Resp>,
    ) -> Resp {
        loop {
            let group = self
                .open
                .lock()
                .get_or_insert_with(Default::default)
                .clone();
            let mut state = group.state.lock();
            if state.sealed || state.weight >= self.max_weight {
                // Sealed since the slot was read, or full with its leader
                // yet to wake and seal: either way not ours to join.
                drop(state);
                self.detach(&group);
                continue;
            }
            let index = state.reqs.len();
            state.reqs.push(req);
            state.results.push(None);
            state.weight += weight;
            if index == 0 {
                return self.lead(&group, state, drain);
            }
            if state.weight >= self.max_weight {
                group.cv.notify_all();
            }
            loop {
                if let Some(resp) = state.results[index].take() {
                    return resp;
                }
                state = group.cv.wait(state);
            }
        }
    }

    /// Leader path: linger, seal, drain, distribute.
    fn lead(
        &self,
        group: &Arc<Group<Req, Resp>>,
        mut state: MutexGuard<'_, GroupState<Req, Resp>>,
        drain: impl FnOnce(Vec<Req>) -> Vec<Resp>,
    ) -> Resp {
        let deadline = self.clock.now() + self.linger;
        while !seal_due(state.weight, self.max_weight, deadline, self.clock.now()) {
            state = group.cv.wait_timeout(state, self.clock.park(deadline)).0;
        }
        state.sealed = true;
        let reqs = std::mem::take(&mut state.reqs);
        drop(state);
        self.detach(group);

        let members = reqs.len();
        let mut results =
            std::panic::catch_unwind(AssertUnwindSafe(|| drain(reqs))).unwrap_or_default();
        results.truncate(members);
        results.resize_with(members, self.failed);

        let mut results = results.into_iter();
        let mine = results.next().unwrap_or_else(self.failed);
        let mut state = group.state.lock();
        for (slot, resp) in state.results.iter_mut().skip(1).zip(results) {
            *slot = Some(resp);
        }
        drop(state);
        group.cv.notify_all();
        mine
    }

    /// Empties the open-group slot if it still holds `group`.
    fn detach(&self, group: &Arc<Group<Req, Resp>>) {
        let mut open = self.open.lock();
        if open.as_ref().is_some_and(|g| Arc::ptr_eq(g, group)) {
            *open = None;
        }
    }

    /// Members currently parked in the open group.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        let open = self.open.lock().clone();
        open.map_or(0, |g| g.state.lock().reqs.len())
    }
}

/// Test support shared by this crate's coalescing tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// A clock that moves only when told to: lingers and deadlines
    /// measured on it expire exactly when a test says so. Waiters re-read
    /// it every [`ManualClock::POLL`] of real time, so an advance is
    /// noticed promptly and no outcome depends on how long that takes.
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    const LINGER: Duration = Duration::from_millis(2);
    const FAILED: u32 = u32::MAX;

    /// A coalescer of numbers on a manual clock. Its drain (see
    /// [`tenfold`]) answers each request with ten times itself.
    fn coalescer(max_weight: usize) -> (Arc<Coalescer<u32, u32>>, Arc<ManualClock>) {
        let clock = ManualClock::new();
        (
            Arc::new(Coalescer::new(max_weight, LINGER, clock.clone(), || FAILED)),
            clock,
        )
    }

    /// A drain that records each group it sees.
    fn tenfold(groups: &Mutex<Vec<Vec<u32>>>) -> impl FnOnce(Vec<u32>) -> Vec<u32> + '_ {
        move |reqs| {
            let out = reqs.iter().map(|r| r * 10).collect();
            groups.lock().push(reqs);
            out
        }
    }

    /// Poisons `mutex` by unwinding through a held guard.
    fn poison<T>(mutex: &Mutex<T>) {
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = mutex.lock();
            panic!("poison");
        }));
        assert!(mutex.is_poisoned(), "mutex should be poisoned");
    }

    #[test]
    fn seal_policy_is_a_pure_function_of_group_and_time() {
        let t0 = SystemClock.now();
        let deadline = t0 + LINGER;
        assert!(
            !seal_due(1, 4, deadline, t0),
            "under size, inside the window"
        );
        assert!(seal_due(4, 4, deadline, t0), "size");
        assert!(seal_due(1, 4, deadline, deadline), "linger");
        assert!(!seal_due(
            1,
            4,
            deadline,
            deadline - Duration::from_nanos(1)
        ));
    }

    #[test]
    fn size_seals_without_the_clock_moving() {
        let (c, _clock) = coalescer(3);
        let groups = Mutex::new(Vec::new());
        let (c, seen) = (&c, &groups);
        let answers: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=3)
                .map(|r| s.spawn(move || c.submit(r, 1, tenfold(seen))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Time never passed, so only the third arrival can have sealed.
        assert_eq!(answers, [10, 20, 30]);
        let groups = groups.into_inner();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn linger_seals_when_the_window_passes_and_not_before() {
        let (c, clock) = coalescer(8);
        let groups = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let leader = s.spawn(|| c.submit(1, 1, tenfold(&groups)));
            spin_until("the leader parks", || c.parked() == 1);
            let follower = s.spawn(|| c.submit(2, 1, tenfold(&groups)));
            spin_until("the follower joins", || c.parked() == 2);
            clock.advance(LINGER - Duration::from_nanos(1));
            assert!(groups.lock().is_empty(), "sealed before the linger passed");
            assert_eq!(c.parked(), 2);
            clock.advance(Duration::from_nanos(1));
            assert_eq!(leader.join().unwrap(), 10);
            assert_eq!(follower.join().unwrap(), 20);
        });
        assert_eq!(groups.into_inner(), [vec![1, 2]]);
    }

    #[test]
    fn a_lone_leader_waits_out_the_linger() {
        // Nobody else is coming, but a leader cannot know that: under its
        // size limit it seals only when the window passes.
        let (c, clock) = coalescer(8);
        let groups = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let leader = s.spawn(|| c.submit(5, 1, tenfold(&groups)));
            spin_until("the leader parks", || c.parked() == 1);
            clock.advance(LINGER - Duration::from_nanos(1));
            assert!(groups.lock().is_empty(), "sealed before the linger passed");
            clock.advance(Duration::from_nanos(1));
            assert_eq!(leader.join().unwrap(), 50);
        });
        assert_eq!(groups.into_inner(), [vec![5]]);
        assert_eq!(c.parked(), 0, "the drained group left the slot");
    }

    #[test]
    fn weight_limit_binds_at_join_time() {
        // A group that reached its limit but whose leader has not woken
        // to seal it yet: a late arrival must open a fresh group instead
        // of growing this one past the limit.
        let (c, _clock) = coalescer(1);
        let full = Arc::new(Group::default());
        {
            let mut state = full.state.lock();
            state.reqs = vec![1];
            state.weight = 1;
        }
        *c.open.lock() = Some(full.clone());
        let groups = Mutex::new(Vec::new());
        assert_eq!(c.submit(3, 1, tenfold(&groups)), 30);
        assert_eq!(groups.into_inner(), [vec![3]]);
        assert_eq!(full.state.lock().reqs, [1]);
    }

    #[test]
    fn arrival_after_seal_opens_the_next_group() {
        let (c, _clock) = coalescer(1);
        let groups = Mutex::new(Vec::new());
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            // The first group seals (full at one member) and its drain
            // stays open until released.
            let first = s.spawn(|| {
                c.submit(1, 1, |reqs| {
                    entered.wait();
                    release.wait();
                    tenfold(&groups)(reqs)
                })
            });
            entered.wait();
            // While that drain runs: a group of its own.
            assert_eq!(c.submit(2, 1, tenfold(&groups)), 20);
            release.wait();
            assert_eq!(first.join().unwrap(), 10);
        });
        assert_eq!(groups.into_inner(), [vec![2], vec![1]]);
    }

    #[test]
    fn drain_panic_fails_its_group_and_only_its_group() {
        let (c, _clock) = coalescer(2);
        let drains = AtomicUsize::new(0);
        let (c, drains) = (&c, &drains);
        let answers: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=2)
                .map(|r| {
                    s.spawn(move || {
                        c.submit(r, 1, |_| {
                            drains.fetch_add(1, Ordering::SeqCst);
                            panic!("drain blew up")
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Leader and follower both got the failure value; nobody wedged.
        assert_eq!(answers, [FAILED, FAILED]);
        assert_eq!(drains.load(Ordering::SeqCst), 1);
        // The next group is unaffected.
        let groups = Mutex::new(Vec::new());
        assert_eq!(c.submit(4, 2, tenfold(&groups)), 40);
    }

    #[test]
    fn short_drain_output_is_padded_with_the_failure_value() {
        let (c, _clock) = coalescer(2);
        let c = &c;
        let mut answers: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=2)
                .map(|r| s.spawn(move || c.submit(r, 1, |_| vec![99])))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        answers.sort_unstable();
        assert_eq!(answers, [99, FAILED]);
    }

    #[test]
    fn poisoned_group_map_recovers() {
        // A peer panicking while holding the open-group slot must not
        // brick grouping for every later request.
        let (c, _clock) = coalescer(4);
        poison(&c.open);
        let groups = Mutex::new(Vec::new());
        assert_eq!(c.submit(1, 4, tenfold(&groups)), 10);
        assert!(c.open.lock().is_none());
    }

    #[test]
    fn poisoned_group_state_recovers() {
        // Same for an open group's own state lock.
        let (c, _clock) = coalescer(4);
        let open = Arc::new(Group::default());
        poison(&open.state);
        *c.open.lock() = Some(open);
        let groups = Mutex::new(Vec::new());
        assert_eq!(c.submit(1, 4, tenfold(&groups)), 10);
    }
}
