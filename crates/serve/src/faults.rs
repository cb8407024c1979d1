//! Deterministic, seed-driven fault injection for the serving stack.
//!
//! A [`FaultPlan`] is an *optional, runtime-installed* chaos schedule:
//! when a server carries one ([`crate::Server::set_fault_plan`]), the
//! serving hot path consults it at two named boundaries
//! ([`FaultSite`]) and — per the plan's seeded dice — raises a panic,
//! injects a delay, or returns a transient error right there. With no
//! plan installed the hooks cost one relaxed atomic load.
//!
//! Determinism is the design center: each site keeps its own draw
//! counter, and the decision for draw `n` at site `s` is a pure
//! function of `(seed, s, n)` (a SplitMix64 mix). A chaos run with a
//! given seed injects the same faults at the same points every time —
//! so a storm that finds a bug is a reproducer, not an anecdote. (With
//! multiple client threads, *which query* makes a site's n-th draw
//! still depends on scheduling; the fault schedule itself does not.)
//!
//! The harness is deliberately runtime-gated rather than
//! feature-gated: the chaos tests must run under the repo's plain
//! tier-1 `cargo test`, and a disabled plan is one branch — there is
//! nothing worth compiling out.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cx_storage::{Error, QueryError, Result};

/// Number of injection sites (array sizing for per-site counters).
const SITES: usize = 2;

/// The serving-stack boundaries a [`FaultPlan`] can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// On the query thread, when a plan-cache miss builds a plan with a
    /// semantic filter, join or group-by: once, before the optimizer,
    /// whose selectivity sampling is where a plan build embeds.
    Embed,
    /// Before admission (the cost gate) on the query thread.
    Admission,
}

impl FaultSite {
    /// All sites, for test matrices.
    pub const ALL: [FaultSite; SITES] = [FaultSite::Embed, FaultSite::Admission];

    fn index(self) -> usize {
        match self {
            FaultSite::Embed => 0,
            FaultSite::Admission => 1,
        }
    }

    /// Lowercase site name (stats/report lines).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Embed => "embed",
            FaultSite::Admission => "admission",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What an injection point does when the dice say "fault".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the site — exercises the server's containment
    /// boundary at the query's top level.
    Panic,
    /// Sleep at the site — exercises deadlines.
    Delay,
    /// Return [`QueryError::Transient`] — exercises the retry-once
    /// policy.
    Transient,
}

/// Counters of faults actually injected, per site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected faults per [`FaultSite::ALL`] order.
    pub per_site: [u64; SITES],
}

impl FaultStats {
    /// Total faults injected across all sites.
    pub fn total(&self) -> u64 {
        self.per_site.iter().sum()
    }
}

/// A deterministic chaos schedule: at each consulted site, draw from a
/// seeded stream and fault with the configured probability.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Fault probability per draw, in parts per 10_000.
    rate_bp: u64,
    delay: Duration,
    draws: [AtomicU64; SITES],
    injected: [AtomicU64; SITES],
}

/// SplitMix64: the standard 64-bit finalizing mix; every decision is a
/// pure function of the mixed input, which is what makes runs replay.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan faulting with probability `rate` (clamped to `[0, 1]`) per
    /// consulted site, seeded by `seed`. Injected delays default to 2 ms
    /// ([`Self::with_delay`] overrides).
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate_bp = (rate.clamp(0.0, 1.0) * 10_000.0).round() as u64;
        FaultPlan {
            seed,
            rate_bp,
            delay: Duration::from_millis(2),
            draws: Default::default(),
            injected: Default::default(),
        }
    }

    /// Sets the sleep injected by [`FaultKind::Delay`] faults.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws the next decision for `site`: `None` = proceed normally.
    /// Decision `n` at a site depends only on `(seed, site, n)`.
    pub fn roll(&self, site: FaultSite) -> Option<FaultKind> {
        if self.rate_bp == 0 {
            return None;
        }
        let i = site.index();
        let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.seed ^ splitmix64((i as u64) << 32 | n));
        if h % 10_000 >= self.rate_bp {
            return None;
        }
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        Some(match (h >> 16) % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::Delay,
            _ => FaultKind::Transient,
        })
    }

    /// Snapshot of injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        let mut per_site = [0u64; SITES];
        for (out, c) in per_site.iter_mut().zip(&self.injected) {
            *out = c.load(Ordering::Relaxed);
        }
        FaultStats { per_site }
    }

    /// Acts on one draw at `site`: sleeps on `Delay`, panics on `Panic`
    /// (to be contained by the site's unwind boundary), or returns the
    /// typed transient error for the caller to propagate.
    pub fn strike(&self, site: FaultSite) -> Result<()> {
        match self.roll(site) {
            None => Ok(()),
            Some(FaultKind::Delay) => {
                std::thread::sleep(self.delay);
                Ok(())
            }
            Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
            Some(FaultKind::Transient) => Err(Error::Query(QueryError::Transient(format!(
                "injected fault at {site}"
            )))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_faults() {
        let plan = FaultPlan::new(42, 0.0);
        for _ in 0..1000 {
            assert_eq!(plan.roll(FaultSite::Embed), None);
        }
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn full_rate_always_faults() {
        let plan = FaultPlan::new(42, 1.0);
        for _ in 0..100 {
            assert!(plan.roll(FaultSite::Embed).is_some());
        }
        assert_eq!(plan.stats().total(), 100);
    }

    #[test]
    fn same_seed_replays_identical_schedule() {
        let draw_all = |seed| {
            let plan = FaultPlan::new(seed, 0.05);
            FaultSite::ALL
                .iter()
                .flat_map(|&s| (0..500).map(|_| (s, plan.roll(s))).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw_all(7), draw_all(7));
        assert_ne!(draw_all(7), draw_all(8), "different seeds should differ");
    }

    #[test]
    fn rate_is_roughly_honored() {
        let plan = FaultPlan::new(3, 0.05);
        for _ in 0..10_000 {
            plan.roll(FaultSite::Admission);
        }
        let hit = plan.stats().per_site[FaultSite::Admission.index()];
        assert!(
            (300..=700).contains(&hit),
            "5% of 10k draws ≈ 500, got {hit}"
        );
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan::new(11, 0.5);
        let a: Vec<_> = (0..100).map(|_| plan.roll(FaultSite::Embed)).collect();
        let plan2 = FaultPlan::new(11, 0.5);
        let b: Vec<_> = (0..100).map(|_| plan2.roll(FaultSite::Admission)).collect();
        assert_ne!(a, b, "per-site streams should not be identical");
    }

    #[test]
    fn strike_maps_transient_to_typed_error() {
        // Rate 1.0 guarantees a fault each draw; scan for a Transient one.
        let plan = FaultPlan::new(5, 1.0);
        let mut saw_transient = false;
        for _ in 0..200 {
            match std::panic::catch_unwind(|| plan.strike(FaultSite::Admission)) {
                Ok(Err(e)) => {
                    assert!(e.is_transient());
                    saw_transient = true;
                }
                Ok(Ok(())) => {} // delay fault
                Err(_) => {}     // panic fault
            }
        }
        assert!(saw_transient);
    }
}
