//! Singleflight coalescing of identical in-flight decisions.
//!
//! The canonical decision cache (PR 2) collapses *repeated* work: the
//! second request for an isomorphic pair is a lookup. What it cannot
//! collapse is *concurrent* work — a thundering herd of N identical cold
//! requests all miss, and all N pay the full Theorem 3.1 decision before
//! the first `put` lands. [`Singleflight`] closes that window with the
//! same keys the cache already computes: the first request for a key
//! becomes the **leader** and runs the decision; every request for the
//! same key that arrives while the leader is in flight registers as a
//! **waiter** and is answered from the leader's verdict when it completes
//! (the fan-out), occupying no worker thread while parked.
//!
//! Waiters are opaque to this module (`W` is the reactor's parked-request
//! record), which keeps the table independently testable. Budget
//! semantics are the caller's contract: requests carrying an explicit
//! `limit=` never coalesce (their work accounting is request-local by
//! definition), and a parked waiter whose own wall-clock deadline expires
//! is removed with [`Singleflight::remove_waiter`] and answered
//! `err timeout` without disturbing the leader.

use crate::cache::{ContainsKey, KeyBuild, MinimizeKey};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// The identity of one coalescable decision: the very key the canonical
/// decision cache builds, hash included, plus the verb — `contains` and
/// `equiv` over the same pair are distinct computations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightKey {
    /// `contains`, keyed up to isomorphism of both sides.
    Contains(ContainsKey),
    /// `equiv`, keyed up to isomorphism of both sides.
    Equivalent(ContainsKey),
    /// `minimize`, keyed by the *exact* rendered query — its output carries
    /// the user's variable names (same rule as the cache).
    Minimize(MinimizeKey),
}

impl Hash for FlightKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(match self {
            FlightKey::Contains(k) => k.key_hash(),
            FlightKey::Equivalent(k) => !k.key_hash(),
            FlightKey::Minimize(k) => k.key_hash(),
        });
    }
}

/// What [`Singleflight::join`] decided for a request.
#[derive(Debug, PartialEq, Eq)]
pub enum JoinOutcome {
    /// No leader in flight: the caller must compute, then
    /// [`Singleflight::complete`] the key to collect its waiters.
    Lead,
    /// A leader is already computing this key; the caller's waiter record
    /// was parked and will be returned to the leader at completion.
    Joined,
}

/// Counters describing coalescing traffic (see
/// [`Singleflight::stats`]); rendered by the `stats show` protocol verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Computations led (one per coalesced group, plus every uncontended
    /// coalescable request).
    pub leaders: u64,
    /// Requests parked behind an in-flight leader.
    pub waiters_joined: u64,
    /// Waiter responses fanned out from a leader's verdict.
    pub fanouts: u64,
    /// Waiters removed before fan-out (their own deadline expired).
    pub expired: u64,
    /// Keys currently in flight.
    pub inflight: usize,
}

/// The in-flight table. One entry per key being computed; the entry's
/// vector holds the waiters parked behind the leader.
pub struct Singleflight<W> {
    inflight: Mutex<HashMap<FlightKey, Vec<W>, KeyBuild>>,
    leaders: AtomicU64,
    waiters_joined: AtomicU64,
    fanouts: AtomicU64,
    expired: AtomicU64,
}

impl<W> Singleflight<W> {
    /// An empty table.
    pub fn new() -> Singleflight<W> {
        Singleflight {
            inflight: Mutex::new(HashMap::default()),
            leaders: AtomicU64::new(0),
            waiters_joined: AtomicU64::new(0),
            fanouts: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Either become the leader for `key` (no one is computing it) or park
    /// `waiter()` behind the current leader. The closure is only invoked
    /// on the `Joined` path.
    pub fn join(&self, key: &FlightKey, waiter: impl FnOnce() -> W) -> JoinOutcome {
        let mut map = self.inflight.lock().unwrap();
        match map.get_mut(key) {
            None => {
                map.insert(key.clone(), Vec::new());
                self.leaders.fetch_add(1, Relaxed);
                JoinOutcome::Lead
            }
            Some(parked) => {
                parked.push(waiter());
                self.waiters_joined.fetch_add(1, Relaxed);
                JoinOutcome::Joined
            }
        }
    }

    /// The leader finished: retire the key and take its parked waiters for
    /// fan-out. Joins and completions serialize on the table lock, so a
    /// request either parked here (and is returned) or never saw this
    /// flight at all.
    pub fn complete(&self, key: &FlightKey) -> Vec<W> {
        let parked = self
            .inflight
            .lock()
            .unwrap()
            .remove(key)
            .unwrap_or_default();
        self.fanouts.fetch_add(parked.len() as u64, Relaxed);
        parked
    }

    /// Remove the first parked waiter matching `pred` (used when a
    /// waiter's own deadline expires). Returns `None` when the flight
    /// already completed — the fan-out owns the waiter in that case, and
    /// the caller must not answer it a second time.
    pub fn remove_waiter(&self, key: &FlightKey, mut pred: impl FnMut(&W) -> bool) -> Option<W> {
        let mut map = self.inflight.lock().unwrap();
        let parked = map.get_mut(key)?;
        let at = parked.iter().position(&mut pred)?;
        self.expired.fetch_add(1, Relaxed);
        Some(parked.remove(at))
    }

    /// Traffic counters since construction.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            leaders: self.leaders.load(Relaxed),
            waiters_joined: self.waiters_joined.load(Relaxed),
            fanouts: self.fanouts.load(Relaxed),
            expired: self.expired.load(Relaxed),
            inflight: self.inflight.lock().unwrap().len(),
        }
    }
}

impl<W> Default for Singleflight<W> {
    fn default() -> Self {
        Singleflight::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use oocq_core::{PreparedQuery, PreparedSchema};
    use oocq_query::QueryBuilder;

    /// A one-variable query whose free variable is named `name`.
    fn handle(name: &str) -> PreparedQuery {
        let s = oocq_schema::samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new(name);
        let x = b.free();
        b.range(x, [c]);
        PreparedQuery::new(&PreparedSchema::new(&s), b.build())
    }

    /// Minimize keys are exact, so distinct names are distinct flights.
    fn key(tag: &str) -> FlightKey {
        FlightKey::Minimize(MinimizeKey::of(&handle(tag)))
    }

    #[test]
    fn first_joiner_leads_and_later_joiners_park() {
        let f: Singleflight<u32> = Singleflight::new();
        assert_eq!(f.join(&key("a"), || unreachable!()), JoinOutcome::Lead);
        assert_eq!(f.join(&key("a"), || 1), JoinOutcome::Joined);
        assert_eq!(f.join(&key("a"), || 2), JoinOutcome::Joined);
        // A different key is an independent flight.
        assert_eq!(f.join(&key("b"), || unreachable!()), JoinOutcome::Lead);
        let st = f.stats();
        assert_eq!((st.leaders, st.waiters_joined, st.inflight), (2, 2, 2));

        assert_eq!(f.complete(&key("a")), vec![1, 2]);
        assert_eq!(f.complete(&key("b")), Vec::<u32>::new());
        let st = f.stats();
        assert_eq!((st.fanouts, st.inflight), (2, 0));
        // The key is free again: the next request leads a fresh flight.
        assert_eq!(f.join(&key("a"), || unreachable!()), JoinOutcome::Lead);
    }

    #[test]
    fn expired_waiters_leave_the_flight_exactly_once() {
        let f: Singleflight<u32> = Singleflight::new();
        f.join(&key("a"), || unreachable!());
        f.join(&key("a"), || 1);
        f.join(&key("a"), || 2);
        assert_eq!(f.remove_waiter(&key("a"), |&w| w == 1), Some(1));
        // Already removed: the deadline path must not double-answer.
        assert_eq!(f.remove_waiter(&key("a"), |&w| w == 1), None);
        assert_eq!(f.complete(&key("a")), vec![2]);
        // Completed flight: removal reports the fan-out owns everything.
        assert_eq!(f.remove_waiter(&key("a"), |_| true), None);
        let st = f.stats();
        assert_eq!((st.expired, st.fanouts), (1, 1));
    }

    #[test]
    fn contains_and_equiv_keys_do_not_collide() {
        let p = handle("x");
        let pair = ContainsKey::new(
            p.schema(),
            p.canonical_form().clone(),
            p.canonical_form().clone(),
        );
        let contains = FlightKey::Contains(pair.clone());
        let equiv = FlightKey::Equivalent(pair);
        let f: Singleflight<u32> = Singleflight::new();
        assert_eq!(f.join(&contains, || unreachable!()), JoinOutcome::Lead);
        assert_eq!(f.join(&equiv, || unreachable!()), JoinOutcome::Lead);
        assert_eq!(f.stats().inflight, 2);
        // The same pair under a renamed handle is the same flight.
        let renamed = handle("y");
        let again = FlightKey::Contains(ContainsKey::new(
            renamed.schema(),
            renamed.canonical_form().clone(),
            renamed.canonical_form().clone(),
        ));
        assert_eq!(f.join(&again, || 7), JoinOutcome::Joined);
        assert_eq!(f.complete(&contains), vec![7]);
    }
}
