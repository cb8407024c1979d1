//! The one coalescing primitive of the serving layer.
//!
//! Amortizing work across concurrent queries — one model pass for many
//! embed requests, one panel sweep for many scans — is always the same
//! protocol, implemented here once as the crate-internal `Coalescer`:
//!
//! 1. **Join or lead.** The first request to arrive under a key opens a
//!    group and becomes its leader; later arrivals join as followers.
//!    Each request carries a weight; a group that has reached the weight
//!    limit takes no more members, so a late arrival opens the next
//!    group (the limit binds at join time, not only at seal time).
//! 2. **Seal** (`seal_due`, a pure function of the group and the
//!    time): on **size** (weight limit reached), at once when the leader
//!    is **uncontended** (nobody exists who could join), or when the
//!    **linger** window after the leader's arrival has passed.
//! 3. **Drain.** The leader runs the caller's drain over the whole group
//!    on its own thread — no background thread, nothing to shut down —
//!    and hands every member the result at its index.
//! 4. **Contain.** A drain that panics or under-delivers costs its group,
//!    not the server: every member without a result gets the coalescer's
//!    failure value, no follower stays parked, and the next group under
//!    the key starts clean.
//!
//! Two locks, never held together: the key → open-group map and each
//! group's state. Both recover from poisoning. Drains run outside both.
//!
//! The only time source is the `Clock` handed to the constructor, so
//! every rule above is tested on a manual clock without sleeping.
//! [`crate::ScanQueue`] and [`crate::EmbedBatcher`] are the two clients;
//! [`crate::CostGate`] admits rather than coalesces, so it only shares
//! the clock.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
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

/// The seal policy: whether a group of `weight` (limit `max_weight`),
/// whose leader is `contended` or not and lingers until `deadline`, seals
/// at `now` — on size, because an uncontended leader cannot gain a member
/// by lingering, or because the linger window has passed.
pub(crate) fn seal_due(
    weight: usize,
    max_weight: usize,
    contended: bool,
    deadline: Instant,
    now: Instant,
) -> bool {
    weight >= max_weight || !contended || now >= deadline
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

/// Keyed leader/follower group former (see the module docs).
pub(crate) struct Coalescer<Req, Resp> {
    max_weight: usize,
    linger: Duration,
    clock: Arc<dyn Clock>,
    /// What a member gets when its group's drain produced nothing for it.
    failed: fn() -> Resp,
    /// The open (joinable) group per key.
    groups: Mutex<HashMap<u64, Arc<Group<Req, Resp>>>>,
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
            groups: Mutex::new(HashMap::new()),
        }
    }

    /// Joins (or opens) the group under `key` and blocks until this
    /// request's result is ready. The leader alone runs `drain`, over the
    /// whole group in arrival order (its own request first); the results
    /// must be index-aligned with the requests. `contended` matters for
    /// the leader only: `false` seals at once instead of lingering.
    pub(crate) fn submit(
        &self,
        key: u64,
        req: Req,
        weight: usize,
        contended: bool,
        drain: impl FnOnce(Vec<Req>) -> Vec<Resp>,
    ) -> Resp {
        loop {
            let group = self.groups.lock().entry(key).or_default().clone();
            let mut state = group.state.lock();
            if state.sealed || state.weight >= self.max_weight {
                // Sealed since the map lookup, or full with its leader
                // yet to wake and seal: either way not ours to join.
                drop(state);
                self.detach(key, &group);
                continue;
            }
            let index = state.reqs.len();
            state.reqs.push(req);
            state.results.push(None);
            state.weight += weight;
            if index == 0 {
                return self.lead(key, &group, state, contended, drain);
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
        key: u64,
        group: &Arc<Group<Req, Resp>>,
        mut state: MutexGuard<'_, GroupState<Req, Resp>>,
        contended: bool,
        drain: impl FnOnce(Vec<Req>) -> Vec<Resp>,
    ) -> Resp {
        let deadline = self.clock.now() + self.linger;
        while !seal_due(state.weight, self.max_weight, contended, deadline, self.clock.now()) {
            state = group.cv.wait_timeout(state, self.clock.park(deadline)).0;
        }
        state.sealed = true;
        let reqs = std::mem::take(&mut state.reqs);
        drop(state);
        self.detach(key, group);

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

    /// Removes `group` from the map if it is still the open group under
    /// `key`.
    fn detach(&self, key: u64, group: &Arc<Group<Req, Resp>>) {
        let mut groups = self.groups.lock();
        if groups.get(&key).is_some_and(|open| Arc::ptr_eq(open, group)) {
            groups.remove(&key);
        }
    }

    /// Members currently parked in open groups.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        let open: Vec<_> = self.groups.lock().values().cloned().collect();
        open.iter().map(|g| g.state.lock().reqs.len()).sum()
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
            Arc::new(ManualClock { base: SystemClock.now(), advanced_ns: AtomicU64::new(0) })
        }

        pub(crate) fn advance(&self, by: Duration) {
            self.advanced_ns.fetch_add(by.as_nanos() as u64, Ordering::SeqCst);
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
        (Arc::new(Coalescer::new(max_weight, LINGER, clock.clone(), || FAILED)), clock)
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
        assert!(!seal_due(1, 4, true, deadline, t0), "contended, under size, inside the window");
        assert!(seal_due(4, 4, true, deadline, t0), "size");
        assert!(seal_due(1, 4, false, deadline, t0), "uncontended");
        assert!(seal_due(1, 4, true, deadline, deadline), "linger");
        assert!(!seal_due(1, 4, true, deadline, deadline - Duration::from_nanos(1)));
    }

    #[test]
    fn size_seals_without_the_clock_moving() {
        let (c, _clock) = coalescer(3);
        let groups = Mutex::new(Vec::new());
        let (c, seen) = (&c, &groups);
        let answers: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (1..=3).map(|r| s.spawn(move || c.submit(7, r, 1, true, tenfold(seen)))).collect();
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
            let leader = s.spawn(|| c.submit(7, 1, 1, true, tenfold(&groups)));
            spin_until("the leader parks", || c.parked() == 1);
            let follower = s.spawn(|| c.submit(7, 2, 1, true, tenfold(&groups)));
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
    fn uncontended_leader_seals_at_once() {
        // On a clock that never moves, lingering would never end.
        let (c, _clock) = coalescer(8);
        let groups = Mutex::new(Vec::new());
        assert_eq!(c.submit(7, 5, 1, false, tenfold(&groups)), 50);
        assert_eq!(groups.into_inner(), [vec![5]]);
        assert_eq!(c.parked(), 0, "the drained group left the map");
    }

    #[test]
    fn weight_limit_binds_at_join_time() {
        // A group that reached its limit but whose leader has not woken
        // to seal it yet: a late arrival must open a fresh group instead
        // of growing this one past the limit.
        let (c, _clock) = coalescer(2);
        let full = Arc::new(Group::default());
        {
            let mut state = full.state.lock();
            state.reqs = vec![1, 2];
            state.weight = 2;
        }
        c.groups.lock().insert(7, full.clone());
        let groups = Mutex::new(Vec::new());
        assert_eq!(c.submit(7, 3, 1, false, tenfold(&groups)), 30);
        assert_eq!(groups.into_inner(), [vec![3]]);
        assert_eq!(full.state.lock().reqs, [1, 2]);
    }

    #[test]
    fn arrival_after_seal_opens_the_next_group() {
        let (c, _clock) = coalescer(8);
        let groups = Mutex::new(Vec::new());
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            // The first group seals (uncontended) and its drain stays
            // open until released.
            let first = s.spawn(|| {
                c.submit(7, 1, 1, false, |reqs| {
                    entered.wait();
                    release.wait();
                    tenfold(&groups)(reqs)
                })
            });
            entered.wait();
            // Same key, while that drain runs: a group of its own.
            assert_eq!(c.submit(7, 2, 1, false, tenfold(&groups)), 20);
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
                        c.submit(7, r, 1, true, |_| {
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
        // The next group under the same key is unaffected.
        let groups = Mutex::new(Vec::new());
        assert_eq!(c.submit(7, 4, 1, false, tenfold(&groups)), 40);
    }

    #[test]
    fn short_drain_output_is_padded_with_the_failure_value() {
        let (c, _clock) = coalescer(2);
        let c = &c;
        let mut answers: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (1..=2).map(|r| s.spawn(move || c.submit(7, r, 1, true, |_| vec![99]))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        answers.sort_unstable();
        assert_eq!(answers, [99, FAILED]);
    }

    #[test]
    fn poisoned_group_map_recovers() {
        // A peer panicking while holding the map must not brick
        // grouping for every later request.
        let (c, _clock) = coalescer(4);
        poison(&c.groups);
        let groups = Mutex::new(Vec::new());
        assert_eq!(c.submit(7, 1, 1, false, tenfold(&groups)), 10);
        assert!(c.groups.lock().is_empty());
    }

    #[test]
    fn poisoned_group_state_recovers() {
        // Same for an open group's own state lock.
        let (c, _clock) = coalescer(4);
        let open = Arc::new(Group::default());
        poison(&open.state);
        c.groups.lock().insert(7, open);
        let groups = Mutex::new(Vec::new());
        assert_eq!(c.submit(7, 1, 1, false, tenfold(&groups)), 10);
    }
}
