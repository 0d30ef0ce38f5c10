//! The decision-cache hook consulted by the [`Engine`](crate::Engine).
//!
//! The engine itself stays stateless: a [`DecisionCache`] is an optional
//! collaborator installed on [`EngineConfig`](crate::EngineConfig) that may
//! answer a decision before the Theorem 3.1 / §4 machinery runs, and is
//! offered every decision the machinery does compute. Every lookup is over
//! [`PreparedQuery`] handles, so an implementation keys entries from the
//! artifacts memoized on them — the schema
//! [`fingerprint`](crate::PreparedSchema::fingerprint) and the
//! [`canonical_form`](PreparedQuery::canonical_form) — instead of
//! recomputing both per lookup. The canonical implementation
//! (`oocq-service`'s `CanonicalDecisionCache`) keys containment that way,
//! so a renamed copy of a cached query hits.
//!
//! # Soundness contract
//!
//! `get_contains_prepared(p1, p2)` may return `Some(v)` only if `v` is the
//! value `p1 ⊆ p2` under their schema — for containment that value is
//! invariant under variable renaming of either side, which is what
//! licenses canonical keying. `get_minimized_prepared(p)` must return a
//! union **structurally identical** (variable names included) to what
//! [`Engine::minimize`](crate::Engine::minimize) would produce for `p`,
//! because minimization results are rendered back to users;
//! implementations therefore key minimization entries by the exact query,
//! not its canonical class. Certificates
//! ([`Engine::decide`](crate::Engine::decide)) are never cached: their
//! witness text mentions concrete variable names on both sides and is cheap
//! to recompute relative to its size.

use crate::engine::PreparedQuery;
use oocq_query::UnionQuery;

/// A memo table for containment and minimization decisions, shared across
/// threads (`Send + Sync`: the service consults one cache from a whole
/// worker pool).
///
/// All methods take `&self`; implementations handle their own locking.
pub trait DecisionCache: Send + Sync {
    /// A previously recorded value of `p1 ⊆ p2`, if any.
    fn get_contains_prepared(&self, p1: &PreparedQuery, p2: &PreparedQuery) -> Option<bool>;

    /// Record `p1 ⊆ p2 = holds`.
    fn put_contains_prepared(&self, p1: &PreparedQuery, p2: &PreparedQuery, holds: bool);

    /// A previously recorded minimization of `p`, if any. Must be
    /// structurally identical to the engine's output for `p`.
    fn get_minimized_prepared(&self, p: &PreparedQuery) -> Option<UnionQuery>;

    /// Record the minimization of `p`.
    fn put_minimized_prepared(&self, p: &PreparedQuery, result: &UnionQuery);
}
