//! The cooperative request budget threaded through the §3/§4 hot loops.
//!
//! Theorem 3.1 enumerates branches `(S, W)` whose count is worst-case
//! exponential in the left query, and the §4 pipeline runs O(n²) pairwise
//! containment checks over expansions that are themselves exponential in
//! the variable count. A [`Budget`] lets a caller — typically a serving
//! layer with a latency target — bound that work cooperatively: the hot
//! loops charge one unit per branch / subquery / pair, and the first charge
//! past the limit (or past the wall-clock deadline) surfaces as the
//! recoverable [`CoreError::Timeout`]. Nothing is left in a partial state:
//! every charge point sits between whole work items, so the same inputs can
//! be retried under a larger budget.
//!
//! An unlimited budget (the default on every [`EngineConfig`]) holds no
//! allocation and every charge is a no-op, so unbudgeted callers pay
//! nothing and — crucially for the service's determinism contract — a
//! budget that never trips changes no decision value.
//!
//! [`EngineConfig`]: crate::EngineConfig

use crate::error::CoreError;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Budget state: live, tripped by the work limit, tripped by the deadline.
const LIVE: u8 = 0;
const WORK_EXHAUSTED: u8 = 1;
const DEADLINE_EXPIRED: u8 = 2;

#[derive(Debug)]
struct BudgetInner {
    /// Wall-clock cutoff, if any.
    deadline: Option<Instant>,
    /// Work-unit cutoff (`u64::MAX` = unbounded).
    limit: u64,
    /// Work units charged so far, shared across every clone and thread.
    work: AtomicU64,
    /// Sticky trip state: once a charge fails, every later charge fails the
    /// same way, so every nested check stops on the first exhaustion.
    state: AtomicU8,
}

/// A shared, thread-safe work/deadline budget for one decision request.
///
/// Cloning shares the counter (`Arc` inside), so a configuration cloned
/// into helper configs keeps charging the same budget.
/// [`Budget::unlimited`] (the [`Default`]) is a free no-op.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    inner: Option<Arc<BudgetInner>>,
}

impl Budget {
    /// The no-op budget: never trips, allocates nothing.
    pub fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// A budget with an optional wall-clock deadline (measured from now)
    /// and an optional work-unit limit. Both `None` yields
    /// [`Budget::unlimited`].
    pub fn new(deadline: Option<Duration>, limit: Option<u64>) -> Budget {
        if deadline.is_none() && limit.is_none() {
            return Budget::unlimited();
        }
        Budget {
            inner: Some(Arc::new(BudgetInner {
                deadline: deadline.map(|d| Instant::now() + d),
                limit: limit.unwrap_or(u64::MAX),
                work: AtomicU64::new(0),
                state: AtomicU8::new(LIVE),
            })),
        }
    }

    /// A work-unit-only budget (deterministic: no clock involved).
    pub fn with_limit(limit: u64) -> Budget {
        Budget::new(None, Some(limit))
    }

    /// A deadline-only budget, measured from now.
    pub fn with_deadline(deadline: Duration) -> Budget {
        Budget::new(Some(deadline), None)
    }

    /// Is this the no-op budget?
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Work units charged so far (0 for the unlimited budget).
    pub fn work(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.work.load(Ordering::Relaxed))
    }

    /// Charge `units` of work. Fails with [`CoreError::Timeout`] once the
    /// accumulated work exceeds the limit or the deadline has passed; after
    /// the first failure every later charge fails too (the trip is sticky),
    /// so concurrent workers sharing the budget all wind down.
    pub fn charge(&self, units: u64) -> Result<(), CoreError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let work = inner
            .work
            .fetch_add(units, Ordering::Relaxed)
            .saturating_add(units);
        match inner.state.load(Ordering::Relaxed) {
            WORK_EXHAUSTED => {
                return Err(CoreError::Timeout {
                    work,
                    deadline: false,
                })
            }
            DEADLINE_EXPIRED => {
                return Err(CoreError::Timeout {
                    work,
                    deadline: true,
                })
            }
            _ => {}
        }
        if work > inner.limit {
            inner.state.store(WORK_EXHAUSTED, Ordering::Relaxed);
            return Err(CoreError::Timeout {
                work,
                deadline: false,
            });
        }
        if inner.deadline.is_some_and(|d| Instant::now() >= d) {
            inner.state.store(DEADLINE_EXPIRED, Ordering::Relaxed);
            return Err(CoreError::Timeout {
                work,
                deadline: true,
            });
        }
        Ok(())
    }

    /// Check the budget without consuming any work (a zero-unit charge).
    pub fn check(&self) -> Result<(), CoreError> {
        self.charge(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips_and_counts_nothing() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..10_000 {
            b.charge(u64::MAX).unwrap();
        }
        assert_eq!(b.work(), 0);
        assert!(Budget::new(None, None).is_unlimited());
        assert!(Budget::default().is_unlimited());
    }

    #[test]
    fn work_limit_trips_at_the_boundary_and_stays_tripped() {
        let b = Budget::with_limit(3);
        b.charge(1).unwrap();
        b.charge(2).unwrap(); // exactly at the limit: still fine
        let e = b.charge(1).unwrap_err();
        assert!(
            matches!(
                e,
                CoreError::Timeout {
                    work: 4,
                    deadline: false
                }
            ),
            "{e:?}"
        );
        // Sticky: even a zero-unit check fails now.
        assert!(matches!(
            b.check(),
            Err(CoreError::Timeout {
                deadline: false,
                ..
            })
        ));
    }

    #[test]
    fn clones_share_one_counter() {
        let b = Budget::with_limit(2);
        let c = b.clone();
        b.charge(1).unwrap();
        c.charge(1).unwrap();
        assert!(b.charge(1).is_err());
        assert!(c.check().is_err());
        assert_eq!(b.work(), c.work());
    }

    #[test]
    fn expired_deadline_trips_as_deadline() {
        let b = Budget::with_deadline(Duration::ZERO);
        let e = b.charge(1).unwrap_err();
        assert!(
            matches!(e, CoreError::Timeout { deadline: true, .. }),
            "{e:?}"
        );
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::new(Some(Duration::from_secs(3600)), Some(1000));
        for _ in 0..100 {
            b.charge(1).unwrap();
        }
        assert_eq!(b.work(), 100);
    }
}
