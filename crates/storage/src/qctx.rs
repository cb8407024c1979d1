//! Query lifecycle context: deadline, cooperative cancellation, and a
//! memory-budget accountant, threaded ambiently through execution.
//!
//! A [`QueryContext`] carries the three ways a query is allowed to die
//! early:
//!
//! * a **deadline** ([`QueryContext::with_timeout`]) — checked between
//!   chunks and kernel tiles, so a query overshoots by at most one tile
//!   of work, never a full scan;
//! * a **cancellation token** ([`CancelToken`]) — a shared flag a client
//!   (or server-side policy) can trip from another thread;
//! * a **memory budget** ([`MemoryBudget`]) — a cumulative allocation
//!   accountant charged by arena panels, gathered row blocks, and
//!   materialized chunks.
//!
//! Checks are **cooperative**: hot loops call [`QueryContext::check`] at
//! tile/chunk boundaries and bubble the typed
//! [`crate::error::QueryError`] up through the ordinary
//! `Result` plumbing. Nothing is preempted; a kernel always finishes the
//! tile it started, which is what keeps shared (multi-query) sweeps
//! bit-identical for the members that survive.
//!
//! # Ambient propagation
//!
//! Operator `execute()` signatures take no context argument. Instead the
//! server installs the context with [`QueryContext::scope`] around a
//! query's execution, and operators capture [`QueryContext::current`]
//! **once** (at `execute()` time, on the installing thread) and move the
//! clone into their chunk closures. The context is plain data behind
//! `Arc`s, so a captured clone keeps working on whatever thread later
//! drives the iterator — thread-local storage is only consulted at
//! capture time. Worker threads spawned *inside* an operator (the
//! semantic join's probe fan-out) must likewise receive an explicitly
//! captured clone, since a fresh thread's TLS is empty.

use crate::error::{QueryError, Result};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag; clone it to hand one end to the client
/// and leave the other inside the query's [`QueryContext`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token; every context holding a clone observes it at its
    /// next cooperative check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A cumulative allocation accountant for one query.
///
/// Charges are **monotonic**: the accountant tracks bytes *allocated*
/// over the query's lifetime, not live bytes, so accounting needs no
/// release bookkeeping and stays deterministic across runs. Charging
/// never fails — it trips an `exceeded` flag that the next cooperative
/// [`QueryContext::check`] converts into
/// [`QueryError::MemoryBudget`], so enforcement lags the offending
/// allocation by at most one chunk/panel.
#[derive(Debug, Default)]
pub struct MemoryBudget {
    limit: u64,
    allocated: AtomicU64,
    exceeded: AtomicBool,
}

impl MemoryBudget {
    /// A budget of `limit` bytes (0 means unlimited: charges are
    /// recorded but the budget never trips).
    pub fn new(limit: u64) -> Self {
        MemoryBudget {
            limit,
            allocated: AtomicU64::new(0),
            exceeded: AtomicBool::new(false),
        }
    }

    /// The configured limit in bytes (0 = unlimited).
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Records `bytes` of allocation against the budget.
    pub fn charge(&self, bytes: usize) {
        let total = self.allocated.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        if self.limit > 0 && total > self.limit {
            self.exceeded.store(true, Ordering::Release);
        }
    }

    /// Cumulative bytes charged so far.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Whether the budget has been exceeded.
    pub fn is_exceeded(&self) -> bool {
        self.exceeded.load(Ordering::Acquire)
    }
}

/// The lifecycle context of one query: deadline + cancellation +
/// memory budget. Cheap to clone (two `Arc` bumps and a `Copy`).
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    deadline: Option<Instant>,
    cancel: CancelToken,
    budget: Option<Arc<MemoryBudget>>,
}

thread_local! {
    static CURRENT: RefCell<Option<QueryContext>> = const { RefCell::new(None) };
}

/// Restores the previously installed context when a scope ends, even on
/// unwind, so a panicked query can't leak its context into the next one.
struct ScopeGuard {
    prior: Option<QueryContext>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prior.take());
    }
}

impl QueryContext {
    /// A context with no deadline, no budget, and a private (untripped)
    /// cancellation token — checks always pass.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// This context with its deadline set to `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This context with its deadline set `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// This context observing `cancel`.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// This context charging `budget`.
    pub fn with_budget(mut self, budget: Arc<MemoryBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` if no deadline; zero if
    /// already past).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The context's cancellation token (clone it to cancel from
    /// another thread).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The context's budget accountant, if one is attached.
    pub fn budget(&self) -> Option<&Arc<MemoryBudget>> {
        self.budget.as_ref()
    }

    /// Whether the context can ever fail a check (used to skip
    /// per-tile work when the query is unbounded and uncancellable is
    /// *not* knowable — the token may be shared — so this only reports
    /// whether deadline or budget enforcement is active).
    pub fn has_limits(&self) -> bool {
        self.deadline.is_some() || self.budget.as_ref().is_some_and(|b| b.limit() > 0)
    }

    /// Records `bytes` of allocation against the budget (no-op without
    /// one). Pair with a later [`check`](Self::check) to surface
    /// [`QueryError::MemoryBudget`].
    pub fn charge(&self, bytes: usize) {
        if let Some(b) = &self.budget {
            b.charge(bytes);
        }
    }

    /// The cooperative check hot loops call between tiles/chunks:
    /// cancellation, then deadline, then budget.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if self.cancel.is_cancelled() {
            return Err(QueryError::Cancelled.into());
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(QueryError::DeadlineExceeded.into());
            }
        }
        if let Some(b) = &self.budget {
            if b.is_exceeded() {
                return Err(QueryError::MemoryBudget {
                    allocated: b.allocated(),
                    limit: b.limit(),
                }
                .into());
            }
        }
        Ok(())
    }

    /// The context installed on this thread by the innermost
    /// [`scope`](Self::scope), or an unbounded one. Capture this once
    /// per `execute()` and move the clone into chunk closures — TLS is
    /// not consulted again afterwards.
    pub fn current() -> QueryContext {
        CURRENT.with(|c| c.borrow().clone()).unwrap_or_default()
    }

    /// Runs `f` with this context installed as the thread's current
    /// context; the prior context is restored afterwards (also on
    /// unwind).
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let prior = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        let _guard = ScopeGuard { prior };
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn unbounded_context_always_passes() {
        let ctx = QueryContext::unbounded();
        assert!(ctx.check().is_ok());
        assert!(!ctx.has_limits());
        ctx.charge(1 << 40); // no budget attached: charging is a no-op
        assert!(ctx.check().is_ok());
    }

    #[test]
    fn cancellation_is_observed_via_shared_token() {
        let token = CancelToken::new();
        let ctx = QueryContext::unbounded().with_cancel(token.clone());
        assert!(ctx.check().is_ok());
        token.cancel();
        assert_eq!(ctx.check(), Err(Error::Query(QueryError::Cancelled)));
    }

    #[test]
    fn past_deadline_fails_check() {
        let ctx = QueryContext::unbounded().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(ctx.check(), Err(Error::Query(QueryError::DeadlineExceeded)));
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn budget_trips_after_cumulative_charges() {
        let budget = Arc::new(MemoryBudget::new(100));
        let ctx = QueryContext::unbounded().with_budget(budget.clone());
        ctx.charge(60);
        assert!(ctx.check().is_ok());
        ctx.charge(60);
        assert!(budget.is_exceeded());
        match ctx.check() {
            Err(Error::Query(QueryError::MemoryBudget { allocated, limit })) => {
                assert_eq!(allocated, 120);
                assert_eq!(limit, 100);
            }
            other => panic!("expected MemoryBudget, got {other:?}"),
        }
    }

    #[test]
    fn zero_limit_budget_records_but_never_trips() {
        let budget = Arc::new(MemoryBudget::new(0));
        let ctx = QueryContext::unbounded().with_budget(budget.clone());
        ctx.charge(1 << 30);
        assert!(ctx.check().is_ok());
        assert_eq!(budget.allocated(), 1 << 30);
    }

    #[test]
    fn scope_installs_and_restores_current() {
        let outer = QueryContext::unbounded().with_timeout(Duration::from_secs(3600));
        assert!(QueryContext::current().deadline().is_none());
        outer.scope(|| {
            assert!(QueryContext::current().deadline().is_some());
            let inner = QueryContext::unbounded();
            inner.scope(|| {
                assert!(QueryContext::current().deadline().is_none());
            });
            assert!(QueryContext::current().deadline().is_some());
        });
        assert!(QueryContext::current().deadline().is_none());
    }

    #[test]
    fn scope_restores_after_panic() {
        let ctx = QueryContext::unbounded().with_timeout(Duration::from_secs(3600));
        let r = std::panic::catch_unwind(|| ctx.scope(|| panic!("boom")));
        assert!(r.is_err());
        assert!(
            QueryContext::current().deadline().is_none(),
            "panicked scope leaked context"
        );
    }

    #[test]
    fn captured_clone_works_on_other_threads() {
        let token = CancelToken::new();
        let ctx = QueryContext::unbounded().with_cancel(token.clone());
        let captured = ctx.scope(QueryContext::current);
        token.cancel();
        let handle = std::thread::spawn(move || captured.check());
        assert_eq!(
            handle.join().unwrap(),
            Err(Error::Query(QueryError::Cancelled))
        );
    }
}
