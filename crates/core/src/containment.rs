//! Containment of terminal conjunctive queries (§3) and of unions of
//! terminal positive conjunctive queries (Theorem 4.1).
//!
//! Theorem 3.1: `Q₁ ⊆ Q₂` iff for every consistent augmentation `Q₁&S`
//! (`S` a satisfiable set of equalities among `Q₁`'s variables) and every
//! subset `W` of the satisfiable membership augmentations `T`, there is a
//! non-contradictory variable mapping `μ : Q₂ → Q₁&S&W` with
//! `τ(μ(t₂)) = τ(t₁)` for every standardization function `τ` — i.e.
//! `μ(t₂) ∈ [t₁]`.
//!
//! The corollaries specialize: `Q₂` inequality-free needs only the `W`
//! subsets (Cor. 3.2); `Q₂` positive-plus-inequalities needs only the
//! augmentations `S` (Cor. 3.3); `Q₂` positive needs a single mapping
//! `Q₂ → Q₁` (Cor. 3.4). [`strategy_for`] picks the cheapest sound variant;
//! [`contains_terminal_full`] forces the full Theorem 3.1 enumeration (used
//! by the benchmarks to measure what the corollaries save).
//!
//! Branch enumeration and scheduling live in [`crate::branch`]:
//! [`decide_sides`] builds a [`BranchPlan`] and runs it under the
//! [`Engine`]'s [`EngineConfig`]. The public functions here are one-shot
//! wrappers: each prepares fresh handles and calls one [`Engine::serial`]
//! method.

use crate::branch::{BranchBase, BranchPlan, EngineConfig};
use crate::engine::{one_shot, Engine, PreparedSchema};
use crate::error::CoreError;
use crate::explain::Containment;
use crate::satisfiability::{self, strip_non_range, var_classes, Satisfiability};
use oocq_query::{Query, UnionQuery};
use oocq_schema::Schema;

/// Which containment condition applies, by the atom content of the
/// right-hand query `Q₂`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Corollary 3.4: `Q₂` positive — one mapping `Q₂ → Q₁`.
    Positive,
    /// Corollary 3.2: `Q₂` has no inequality atom — enumerate `W` only.
    InequalityFree,
    /// Corollary 3.3: `Q₂` positive plus inequalities — enumerate `S` only.
    PositiveWithInequalities,
    /// Theorem 3.1: enumerate both `S` and `W`.
    Full,
}

/// The cheapest sound strategy for deciding `… ⊆ q2`.
pub fn strategy_for(q2: &Query) -> Strategy {
    if q2.is_positive() {
        Strategy::Positive
    } else if q2.is_positive_with_inequalities() {
        Strategy::PositiveWithInequalities
    } else if q2.is_inequality_free() {
        Strategy::InequalityFree
    } else {
        Strategy::Full
    }
}

/// Decide `q1 ⊆ q2` for terminal conjunctive queries, choosing the cheapest
/// applicable condition among Theorem 3.1 and Corollaries 3.2–3.4.
///
/// An unsatisfiable `q1` is contained in everything; a satisfiable `q1` is
/// never contained in an unsatisfiable `q2`.
///
/// # Examples
///
/// Example 3.2 of the paper: a chain of two inequalities is equivalent to a
/// single one (two distinct objects satisfy both), but the triangle needs
/// three:
///
/// ```
/// use oocq_core::contains_terminal;
/// use oocq_query::QueryBuilder;
/// use oocq_schema::samples;
///
/// let s = samples::single_class();
/// let c = s.class_id("C").unwrap();
/// let chain = |neqs: &[(usize, usize)]| {
///     let mut b = QueryBuilder::new("x0");
///     let vars: Vec<_> = std::iter::once(b.free())
///         .chain((1..3).map(|i| b.var(&format!("x{i}"))))
///         .collect();
///     for &v in &vars { b.range(v, [c]); }
///     for &(i, j) in neqs { b.neq_vars(vars[i], vars[j]); }
///     b.build()
/// };
/// let two = chain(&[(0, 1), (1, 2)]);
/// let three = chain(&[(0, 1), (1, 2), (0, 2)]);
/// assert!(contains_terminal(&s, &three, &two).unwrap());
/// assert!(!contains_terminal(&s, &two, &three).unwrap());
/// ```
pub fn contains_terminal(schema: &Schema, q1: &Query, q2: &Query) -> Result<bool, CoreError> {
    let [p1, p2] = one_shot(schema, [q1, q2]);
    Engine::serial().contains(&p1, &p2)
}

/// Decide `q1 ⊆ q2` and return the full certificate: witness mappings for
/// every consistent augmentation branch on success, the failing branch on
/// refusal. See [`Containment`].
pub fn decide_containment(
    schema: &Schema,
    q1: &Query,
    q2: &Query,
) -> Result<Containment, CoreError> {
    let [p1, p2] = one_shot(schema, [q1, q2]);
    Engine::serial().decide(&p1, &p2)
}

/// Decide `q1 ⊆ q2` using the full Theorem 3.1 enumeration regardless of
/// `q2`'s shape (sound for every terminal `q2`; used to benchmark the
/// corollaries' savings).
pub fn contains_terminal_full(schema: &Schema, q1: &Query, q2: &Query) -> Result<bool, CoreError> {
    let [p1, p2] = one_shot(schema, [q1, q2]);
    Engine::serial().contains_full(&p1, &p2)
}

/// `q1 ≡ q2` for terminal conjunctive queries. Isomorphic queries are
/// recognized as equivalent without running Theorem 3.1 at all (see
/// [`Engine::equivalent`]).
pub fn equivalent_terminal(schema: &Schema, q1: &Query, q2: &Query) -> Result<bool, CoreError> {
    let [p1, p2] = one_shot(schema, [q1, q2]);
    Engine::serial().equivalent(&p1, &p2)
}

/// The theory-free terminal decision: satisfiability screens on both
/// sides, then the Theorem 3.1 branch enumeration over raw queries. The
/// theory path decides each compiled branch through it
/// ([`crate::theory::decide_pair_with_theory`]); the [`Engine`] reaches
/// [`decide_sides`] over memoized handles instead.
pub(crate) fn decide_plain(
    schema: &Schema,
    q1: &Query,
    q2: &Query,
    strategy: Strategy,
    cfg: &EngineConfig,
    collect: bool,
) -> Result<Containment, CoreError> {
    if let Satisfiability::Unsatisfiable(reason) = satisfiability::satisfiability(schema, q1)? {
        return Ok(Containment::HoldsVacuously(reason));
    }
    if let Satisfiability::Unsatisfiable(reason) = satisfiability::satisfiability(schema, q2)? {
        return Ok(Containment::FailsRightUnsatisfiable(reason));
    }
    let q1 = strip_non_range(q1);
    let q2 = strip_non_range(q2);
    let classes1 = var_classes(schema, &q1)?;
    let classes2 = var_classes(schema, &q2)?;
    let base1 = BranchBase::build(&q1, &classes1);
    decide_sides(
        schema, &q1, &classes1, &base1, &q2, &classes2, strategy, cfg, collect,
    )
}

/// Run the Theorem 3.1 branch enumeration over pre-derived sides: both
/// queries stripped and known satisfiable, terminal classes resolved, and
/// the left side's shared branch state ([`BranchBase`]) already built —
/// either by [`decide_plain`] or memoized on a
/// [`PreparedQuery`](crate::PreparedQuery). Every terminal decision bottoms
/// out here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_sides(
    schema: &Schema,
    q1: &Query,
    classes1: &[oocq_schema::ClassId],
    base1: &BranchBase,
    q2: &Query,
    classes2: &[oocq_schema::ClassId],
    strategy: Strategy,
    cfg: &EngineConfig,
    collect: bool,
) -> Result<Containment, CoreError> {
    let mut enum_s = matches!(
        strategy,
        Strategy::Full | Strategy::PositiveWithInequalities
    );
    let mut enum_w = matches!(strategy, Strategy::Full | Strategy::InequalityFree);

    // Cost-based dispatch: before any block is materialized, downgrade an
    // enumeration dimension the prepared analysis proves trivial. These are
    // exact structural facts about `Q₁`, not heuristics — without a set
    // term every `T(S)` is empty, and without two mergeable equivalence
    // blocks the identity partition is the only consistent `S` — so the
    // downgraded plan enumerates the very same branches.
    if enum_w && !crate::branch::has_set_terms(&base1.analysis) {
        enum_w = false;
    }
    if enum_s && !crate::branch::has_mergeable_blocks(q1, classes1, &base1.analysis) {
        enum_s = false;
    }
    // The empty partition is always a consistent `S`, so its candidate
    // count bounds the branch space from below: provably-over-limit spaces
    // are rejected here, before planning charges the budget for partitions.
    if enum_w {
        let floor = crate::branch::w_candidate_floor(schema, q1, classes1, base1);
        if floor > 63 {
            return Err(CoreError::BranchSpaceOverflow {
                candidates: floor,
                limit: crate::MAX_BRANCHES,
            });
        }
        if 1u64 << floor > crate::MAX_BRANCHES {
            return Err(CoreError::BranchLimit {
                branches: 1u64 << floor,
                limit: crate::MAX_BRANCHES,
            });
        }
    }

    let plan = BranchPlan::build(schema, q1, classes1, base1, enum_s, enum_w, &cfg.budget)?;
    plan.run(q2, classes2, cfg, collect)
}

/// Theorem 4.1: containment of unions of terminal **positive** conjunctive
/// queries is pairwise: `M ⊆ N` iff every satisfiable `Qᵢ` of `M` is
/// contained in some `Pⱼ` of `N`.
pub fn union_contains(schema: &Schema, m: &UnionQuery, n: &UnionQuery) -> Result<bool, CoreError> {
    let ps = PreparedSchema::new(schema);
    Engine::serial().union_contains(&ps.prepare_union(m), &ps.prepare_union(n))
}

/// `M ≡ N` for unions of terminal positive conjunctive queries.
pub fn union_equivalent(
    schema: &Schema,
    m: &UnionQuery,
    n: &UnionQuery,
) -> Result<bool, CoreError> {
    Ok(union_contains(schema, m, n)? && union_contains(schema, n, m)?)
}

/// Containment of arbitrary (not necessarily terminal) **positive**
/// conjunctive queries: normalize, expand to terminal unions
/// (Proposition 2.1), then apply Theorem 4.1.
pub fn contains_positive(schema: &Schema, q1: &Query, q2: &Query) -> Result<bool, CoreError> {
    let [p1, p2] = one_shot(schema, [q1, q2]);
    Engine::serial().contains_positive(&p1, &p2)
}

/// `q1 ≡ q2` for positive conjunctive queries.
pub fn equivalent_positive(schema: &Schema, q1: &Query, q2: &Query) -> Result<bool, CoreError> {
    let [p1, p2] = one_shot(schema, [q1, q2]);
    Engine::serial().equivalent_positive(&p1, &p2)
}

/// Containment dispatch across query shapes: §3 for terminal pairs, §4 for
/// positive pairs, left-expansion against a terminal right side. Shapes
/// outside the fragment the paper proves decidable are rejected with
/// [`CoreError::NotPositive`].
pub fn dispatch_containment(schema: &Schema, qa: &Query, qb: &Query) -> Result<bool, CoreError> {
    let [pa, pb] = one_shot(schema, [qa, qb]);
    Engine::serial().dispatch(&pa, &pb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreparedQuery;
    use oocq_query::QueryBuilder;
    use oocq_schema::samples;
    use std::time::Duration;

    /// `q1 ⊆ q2` over fresh handles, on an engine with `cfg`.
    fn contains_under(
        s: &Schema,
        q1: &Query,
        q2: &Query,
        cfg: &EngineConfig,
    ) -> Result<bool, CoreError> {
        let [p1, p2] = one_shot(s, [q1, q2]);
        Engine::new(cfg.clone()).contains(&p1, &p2)
    }

    /// `q1 ≡ q2` over fresh handles, on an engine with `cfg`.
    fn equivalent_under(
        s: &Schema,
        q1: &Query,
        q2: &Query,
        cfg: &EngineConfig,
    ) -> Result<bool, CoreError> {
        let [p1, p2] = one_shot(s, [q1, q2]);
        Engine::new(cfg.clone()).equivalent(&p1, &p2)
    }

    #[test]
    fn example_31_containment_both_directions() {
        let s = samples::example_31();
        let c = s.class_id("C").unwrap();
        let d = s.class_id("D").unwrap();
        let a = s.attr_id("A").unwrap();
        let bb = s.attr_id("B").unwrap();

        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("z");
        b.range(x, [c]).range(y, [c]).range(z, [d]);
        b.eq_attr(z, y, a);
        b.member(z, y, bb);
        b.eq_vars(x, y);
        let q1 = b.build();

        let mut b = QueryBuilder::new("y");
        let y2 = b.free();
        let z2 = b.var("z");
        b.range(y2, [c]).range(z2, [d]);
        b.eq_attr(z2, y2, a);
        let q2 = b.build();

        assert!(contains_terminal(&s, &q1, &q2).unwrap());
        assert!(!contains_terminal(&s, &q2, &q1).unwrap());
        assert!(!equivalent_terminal(&s, &q1, &q2).unwrap());
        let _ = (x, y, z);
    }

    /// The three inequality-chain queries of Example 3.2.
    fn example_32_query(s: &Schema, extra_xz: bool) -> (Query, Query) {
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("z");
        b.range(x, [c]).range(y, [c]).range(z, [c]);
        b.neq_vars(x, y).neq_vars(y, z);
        if extra_xz {
            b.neq_vars(x, z);
        }
        let q1_or_3 = b.build();

        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [c]).range(y, [c]).neq_vars(x, y);
        (q1_or_3, b.build())
    }

    #[test]
    fn example_32_two_distinct_objects_suffice() {
        let s = samples::single_class();
        let (q1, q2) = example_32_query(&s, false);
        assert!(contains_terminal(&s, &q1, &q2).unwrap());
        assert!(contains_terminal(&s, &q2, &q1).unwrap());
        assert!(equivalent_terminal(&s, &q1, &q2).unwrap());
    }

    #[test]
    fn example_32_three_distinct_objects_are_stronger() {
        let s = samples::single_class();
        let (q3, _) = example_32_query(&s, true);
        let (q1, _) = example_32_query(&s, false);
        assert!(contains_terminal(&s, &q3, &q1).unwrap());
        assert!(!contains_terminal(&s, &q1, &q3).unwrap());
    }

    #[test]
    fn example_33_non_membership_direction() {
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [t1]).range(y, [t2]);
        let q1 = b.build();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [t1]).range(y, [t2]);
        b.non_member(x, y, a);
        let q2 = b.build();
        assert!(contains_terminal(&s, &q2, &q1).unwrap());
        assert!(!contains_terminal(&s, &q1, &q2).unwrap());
    }

    #[test]
    fn example_13_implied_inequality_equivalence() {
        let s = samples::unrelated_subtypes();
        let c = s.class_id("C").unwrap();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let build = |with_neq: bool| {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            let y = b.var("y");
            let sv = b.var("s");
            let tv = b.var("t");
            b.range(x, [c])
                .range(y, [c])
                .range(sv, [t1])
                .range(tv, [t2]);
            b.eq_attr(sv, x, a);
            b.eq_attr(tv, y, a);
            if with_neq {
                b.neq_vars(x, y);
            }
            b.build()
        };
        let q1 = build(true);
        let q2 = build(false);
        assert!(contains_terminal(&s, &q1, &q2).unwrap());
        assert!(contains_terminal(&s, &q2, &q1).unwrap());
    }

    #[test]
    fn unsat_left_is_contained_in_everything() {
        let s = samples::unrelated_subtypes();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("T1").unwrap()]);
        b.range(y, [s.class_id("T2").unwrap()]);
        b.eq_vars(x, y);
        let unsat = b.build();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [s.class_id("T2").unwrap()]);
        let other = b.build();
        assert!(contains_terminal(&s, &unsat, &other).unwrap());
        assert!(!contains_terminal(&s, &other, &unsat).unwrap());
    }

    #[test]
    fn strategy_selection() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mk = |neq: bool, nonmem: bool| {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            let y = b.var("y");
            b.range(x, [c]).range(y, [c]);
            if neq {
                b.neq_vars(x, y);
            }
            if nonmem {
                // C has no attributes; use a synthetic atom anyway (strategy
                // selection is purely syntactic).
                b.non_member(x, y, oocq_schema::AttrId::from_index(0));
            }
            b.build()
        };
        assert_eq!(strategy_for(&mk(false, false)), Strategy::Positive);
        assert_eq!(
            strategy_for(&mk(true, false)),
            Strategy::PositiveWithInequalities
        );
        assert_eq!(strategy_for(&mk(false, true)), Strategy::InequalityFree);
        assert_eq!(strategy_for(&mk(true, true)), Strategy::Full);
    }

    #[test]
    fn full_agrees_with_fast_paths_on_paper_examples() {
        let s = samples::single_class();
        let (q1, q2) = example_32_query(&s, false);
        assert!(contains_terminal_full(&s, &q1, &q2).unwrap());
        assert!(contains_terminal_full(&s, &q2, &q1).unwrap());
        let (q3, _) = example_32_query(&s, true);
        assert!(!contains_terminal_full(&s, &q1, &q3).unwrap());
    }

    #[test]
    fn branch_limit_is_recoverable() {
        // One set term plus 23 candidate member variables makes 2^23
        // membership subsets — over MAX_BRANCHES. Strategy must be
        // InequalityFree (q2 has a non-membership atom) so W is enumerated.
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x0");
        let x0 = b.free();
        b.range(x0, [t1]);
        for i in 1..24 {
            let xi = b.var(&format!("x{i}"));
            b.range(xi, [t1]);
        }
        let y = b.var("y");
        b.range(y, [t2]);
        // x0 ∈ y.A makes y.A a set term; x1..x23 are then 23 fresh candidate
        // memberships (x0's is derivable, hence pruned).
        b.member(x0, y, a);
        let q1 = b.build();

        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y2 = b.var("y");
        b.range(x, [t1]).range(y2, [t2]);
        b.non_member(x, y2, a);
        let q2 = b.build();

        assert_eq!(strategy_for(&q2), Strategy::InequalityFree);
        assert!(matches!(
            contains_terminal(&s, &q1, &q2),
            Err(CoreError::BranchLimit { branches, limit })
                if branches > limit && limit == crate::MAX_BRANCHES
        ));
    }

    #[test]
    fn branch_space_overflow_is_reported_not_saturated() {
        // 65 candidate memberships push 2^|T(S)| past what a 64-bit subset
        // mask can even represent. The old code saturated `1 << 65` silently;
        // now the engine reports the real candidate count up front.
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x0");
        let x0 = b.free();
        b.range(x0, [t1]);
        for i in 1..=65 {
            let xi = b.var(&format!("x{i}"));
            b.range(xi, [t1]);
        }
        let y = b.var("y");
        b.range(y, [t2]);
        b.member(x0, y, a);
        let q1 = b.build();

        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y2 = b.var("y");
        b.range(x, [t1]).range(y2, [t2]);
        b.non_member(x, y2, a);
        let q2 = b.build();

        assert!(matches!(
            contains_terminal(&s, &q1, &q2),
            Err(CoreError::BranchSpaceOverflow { candidates: 65, limit })
                if limit == crate::MAX_BRANCHES
        ));
    }

    /// A 2^n membership-subset space that Theorem 3.1 must walk to the end:
    /// `Q₁ ⊆ Q₂` *holds*, so no early refutation cuts the scan short, and
    /// with `candidates` below 22 the size guard never fires either — only a
    /// budget can stop it. The pair is also *prune-resistant*: `Q₂`'s
    /// non-membership `u ∉ y.A` maps to the first `xi` whose membership the
    /// current `W` excludes (the `xi` precede `z` in pool order), so every
    /// witness carries a live danger bit and breaks as soon as that `xi`
    /// joins `W`; only at the full subset does `u` fall through to `z`.
    /// The monotone pruner therefore never collapses the block, and the
    /// engine really walks all 2^n masks, which is what the budget tests
    /// here rely on.
    fn explosion_pair(s: &Schema, candidates: usize) -> (Query, Query) {
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x0");
        let x0 = b.free();
        b.range(x0, [t1]);
        for i in 1..=candidates {
            let xi = b.var(&format!("x{i}"));
            b.range(xi, [t1]);
        }
        let z = b.var("z");
        let y = b.var("y");
        b.range(z, [t1]).range(y, [t2]);
        b.member(x0, y, a);
        b.non_member(z, y, a);
        let q1 = b.build();

        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let u = b.var("u");
        let y2 = b.var("y");
        b.range(x, [t1]).range(u, [t1]).range(y2, [t2]);
        b.non_member(u, y2, a);
        (q1, b.build())
    }

    #[test]
    fn work_limit_times_out_serial_runs_and_is_recoverable() {
        let s = samples::example_33();
        let (q1, q2) = explosion_pair(&s, 12); // 2^12 branches
        assert_eq!(strategy_for(&q2), Strategy::InequalityFree);
        let tiny = EngineConfig::serial().with_budget(crate::Budget::with_limit(100));
        assert!(matches!(
            contains_under(&s, &q1, &q2, &tiny),
            Err(CoreError::Timeout {
                deadline: false,
                ..
            })
        ));
        // The trip is scoped to that budget: a fresh config decides fine —
        // and the containment genuinely holds, so the full 2^12 walk was
        // the only way there.
        assert!(contains_under(&s, &q1, &q2, &EngineConfig::serial()).unwrap());
    }

    #[test]
    fn work_limit_times_out_unless_a_refutation_concludes() {
        let s = samples::example_33();
        let (q1, q2) = explosion_pair(&s, 12);
        let budgeted = |budget| EngineConfig::serial().with_budget(budget);
        assert!(matches!(
            contains_under(&s, &q1, &q2, &budgeted(crate::Budget::with_limit(100))),
            Err(CoreError::Timeout {
                deadline: false,
                ..
            })
        ));
        // A generous budget changes nothing about the decision.
        let generous = budgeted(crate::Budget::with_limit(1 << 20));
        assert!(contains_under(&s, &q1, &q2, &generous).unwrap());
        // Reversed, containment fails at an early branch: the refutation is
        // reached within the tight budget and is conclusive, so it is
        // returned rather than a timeout.
        let tight = budgeted(crate::Budget::with_limit(100));
        assert!(!contains_under(&s, &q2, &q1, &tight).unwrap());
    }

    #[test]
    fn expired_deadline_times_out_before_any_real_work() {
        let s = samples::example_33();
        let (q1, q2) = explosion_pair(&s, 12);
        let cfg = EngineConfig::serial().with_budget(crate::Budget::with_deadline(Duration::ZERO));
        assert!(matches!(
            contains_under(&s, &q1, &q2, &cfg),
            Err(CoreError::Timeout { deadline: true, .. })
        ));
    }

    #[test]
    fn union_containment_is_pairwise() {
        let s = samples::vehicle_rental();
        let mk = |cls: &str| {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            b.range(x, [s.class_id(cls).unwrap()]);
            b.build()
        };
        let m = UnionQuery::new(vec![mk("Auto"), mk("Truck")]);
        let n = UnionQuery::new(vec![mk("Truck"), mk("Auto"), mk("Trailer")]);
        assert!(union_contains(&s, &m, &n).unwrap());
        assert!(!union_contains(&s, &n, &m).unwrap());
        assert!(union_equivalent(&s, &m, &m).unwrap());
    }

    #[test]
    fn union_containment_requires_positive() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [c]).range(y, [c]).neq_vars(x, y);
        let u = UnionQuery::single(b.build());
        assert!(matches!(
            union_contains(&s, &u, &u),
            Err(CoreError::NotPositive)
        ));
    }

    #[test]
    fn iso_fast_path_is_invisible_in_equivalence() {
        // With and without the isomorphism short-circuit, equivalent_terminal
        // answers identically — including on a renamed pair (fast path fires)
        // and on non-isomorphic pairs both equivalent and inequivalent.
        let s = samples::single_class();
        let (q1, q2) = example_32_query(&s, false);
        let (q3, _) = example_32_query(&s, true);
        // A renamed copy of q1: isomorphic, so the fast path fires.
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("a");
        let a = b.free();
        let bv = b.var("b");
        let cv = b.var("c");
        b.range(a, [c]).range(bv, [c]).range(cv, [c]);
        b.neq_vars(a, bv).neq_vars(bv, cv);
        let q1_renamed = b.build();
        assert!(oocq_query::isomorphic(&q1, &q1_renamed));
        assert!(!oocq_query::isomorphic(&q1, &q2));

        let on = EngineConfig::serial();
        let off = EngineConfig::serial().without_iso_fast_path();
        for (x, y) in [
            (&q1, &q1_renamed),
            (&q1, &q2),
            (&q2, &q1),
            (&q1, &q3),
            (&q3, &q1),
        ] {
            assert_eq!(
                equivalent_under(&s, x, y, &on).unwrap(),
                equivalent_under(&s, x, y, &off).unwrap(),
            );
        }
        // q1 ≡ q2 holds despite non-isomorphism; q1 ≢ q3.
        assert!(equivalent_under(&s, &q1, &q2, &on).unwrap());
        assert!(!equivalent_under(&s, &q1, &q3, &on).unwrap());
    }

    type CanonicalPair = (
        std::sync::Arc<oocq_query::CanonicalQuery>,
        std::sync::Arc<oocq_query::CanonicalQuery>,
    );

    /// A fake cache that counts traffic and remembers puts by canonical
    /// form — enough to observe the engine consulting and feeding it.
    #[derive(Default)]
    struct CountingCache {
        store: std::sync::Mutex<std::collections::HashMap<CanonicalPair, bool>>,
        gets: std::sync::atomic::AtomicUsize,
        hits: std::sync::atomic::AtomicUsize,
        puts: std::sync::atomic::AtomicUsize,
    }

    impl crate::DecisionCache for CountingCache {
        fn get_contains_prepared(&self, p1: &PreparedQuery, p2: &PreparedQuery) -> Option<bool> {
            use std::sync::atomic::Ordering::Relaxed;
            self.gets.fetch_add(1, Relaxed);
            let key = (p1.canonical_form().clone(), p2.canonical_form().clone());
            let hit = self.store.lock().unwrap().get(&key).copied();
            if hit.is_some() {
                self.hits.fetch_add(1, Relaxed);
            }
            hit
        }
        fn put_contains_prepared(&self, p1: &PreparedQuery, p2: &PreparedQuery, holds: bool) {
            self.puts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let key = (p1.canonical_form().clone(), p2.canonical_form().clone());
            self.store.lock().unwrap().insert(key, holds);
        }
        fn get_minimized_prepared(&self, _p: &PreparedQuery) -> Option<UnionQuery> {
            None
        }
        fn put_minimized_prepared(&self, _p: &PreparedQuery, _result: &UnionQuery) {}
    }

    #[test]
    fn decision_cache_is_consulted_and_invisible() {
        use std::sync::atomic::Ordering::Relaxed;
        let s = samples::single_class();
        let (q1, q2) = example_32_query(&s, false);
        let cache = std::sync::Arc::new(CountingCache::default());
        let cached = EngineConfig::serial().with_cache(cache.clone());
        let plain = EngineConfig::serial();

        let cold = contains_under(&s, &q1, &q2, &cached).unwrap();
        assert_eq!(cache.hits.load(Relaxed), 0);
        assert_eq!(cache.puts.load(Relaxed), 1);
        let warm = contains_under(&s, &q1, &q2, &cached).unwrap();
        assert_eq!(cache.hits.load(Relaxed), 1);
        assert_eq!(cache.puts.load(Relaxed), 1, "hits are not re-put");
        let uncached = contains_under(&s, &q1, &q2, &plain).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, uncached, "cache-on equals cache-off");
    }

    /// The generator schemas of the root crate's property sweep.
    fn sweep_schema(seed: u64) -> Schema {
        use oocq_gen::{random_schema, SchemaParams, StdRng};
        match seed % 4 {
            0 => samples::vehicle_rental(),
            1 => samples::n1_partition(),
            2 => samples::example_31(),
            _ => random_schema(
                &mut StdRng::seed_from_u64(seed),
                &SchemaParams {
                    roots: 2,
                    branching: 2,
                    object_attrs: 2,
                    set_attrs: 1,
                    refine_prob: 0.4,
                },
            ),
        }
    }

    /// The Engine's §4 sweeps feed and consult the decision cache, and a
    /// cached engine decides exactly what a cacheless serial one does.
    #[test]
    fn cached_engine_sweeps_decide_like_a_cacheless_engine() {
        use oocq_gen::{random_positive, random_terminal_positive, QueryParams, Rng, StdRng};
        use std::sync::atomic::Ordering::Relaxed;
        let cache = std::sync::Arc::new(CountingCache::default());
        let cached = Engine::serial().with_cache(cache.clone());
        let plain = Engine::serial();
        for seed in 0..48u64 {
            let schema = sweep_schema(seed);
            let ps = PreparedSchema::new(&schema);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xe9e9);
            let p = QueryParams { vars: 3, atoms: 3 };
            let a = random_positive(&mut rng, &schema, &p);
            let b = random_positive(&mut rng, &schema, &p);
            let t = random_terminal_positive(&mut rng, &schema, &p);
            // A non-positive left side against a terminal right one takes
            // dispatch's mixed-shape arm.
            let vars: Vec<_> = a.vars().collect();
            let i = vars[rng.gen_range(0..vars.len())];
            let mixed = a.with_extra_atoms(vec![oocq_query::Atom::Neq(
                oocq_query::Term::Var(a.free_var()),
                oocq_query::Term::Var(i),
            )]);
            // Fresh handles per engine: nothing memoized by one run can
            // leak into the other.
            let handles = |q: &Query| PreparedQuery::new(&ps, q.clone());
            let pair = |e: &Engine| {
                let (pa, pb, pt, pm) = (handles(&a), handles(&b), handles(&t), handles(&mixed));
                (
                    e.contains_positive(&pa, &pb),
                    e.equivalent_positive(&pa, &pb),
                    e.dispatch(&pm, &pt),
                    e.minimize(&pa),
                )
            };
            assert_eq!(pair(&cached), pair(&plain), "seed {seed}");
        }
        assert!(cache.gets.load(Relaxed) > 0);
        assert!(cache.puts.load(Relaxed) > 0);
    }

    #[test]
    fn positive_containment_via_expansion_example_11() {
        // { x in Vehicle … } ≡ { x in Auto … } for the discount query.
        let s = samples::vehicle_rental();
        let veh = s.attr_id("VehRented").unwrap();
        let mk = |cls: &str| {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            let y = b.var("y");
            b.range(x, [s.class_id(cls).unwrap()]);
            b.range(y, [s.class_id("Discount").unwrap()]);
            b.member(x, y, veh);
            b.build()
        };
        let vehicle_q = mk("Vehicle");
        let auto_q = mk("Auto");
        assert!(equivalent_positive(&s, &vehicle_q, &auto_q).unwrap());
        // But not equivalent to the Truck version (which is unsatisfiable,
        // hence strictly below).
        let truck_q = mk("Truck");
        assert!(contains_positive(&s, &truck_q, &auto_q).unwrap());
        assert!(!contains_positive(&s, &auto_q, &truck_q).unwrap());
    }
}
