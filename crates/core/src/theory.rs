//! Theories: schema-constraint compilation for the containment pipeline.
//!
//! Chan's calculus decides containment over *all* legal states of a schema.
//! A [`Theory`] narrows that quantifier: it rewrites the two sides of a
//! containment question so that the plain Theorem 3.1 machinery answers the
//! question **relative to the states the theory admits**. The engine keeps
//! exactly one hook — every terminal decision funnels through
//! [`decide_pair_with_theory`] when a theory is active, and through the
//! untouched plain path otherwise — so the plain calculus remains the
//! byte-identical baseline ([`EmptyTheory`] pins this differentially).
//!
//! The shipped [`ConstraintTheory`] compiles the three declared-constraint
//! families of [`oocq_schema::Constraint`]:
//!
//! * **Disjointness** `constraint disjoint A B;` kills every terminal class
//!   below both `A` and `B` ([`Schema::is_dead_terminal`]). A variable whose
//!   range admits only dead terminals makes its query unsatisfiable in every
//!   constraint-legal state — on the left that yields
//!   [`Containment::HoldsVacuously`], on the right
//!   [`Containment::FailsRightUnsatisfiable`].
//! * **Totality** `constraint total C.A;` chases the *left* query: a
//!   variable known to lie in `C` that does not mention `A` gains a fresh
//!   witness variable bound to `A`'s value (object attributes) or to a
//!   member of it (set attributes). The chase is bounded at
//!   [`MAX_CHASE_ROUNDS`] rounds, so cyclic totalities terminate.
//! * **Functionality** `constraint functional C.A;` equates, on the *left*
//!   query, every pair of members of the same `y.A` when `y` is known to
//!   lie in `C` — a set attribute with at most one member behaves like a
//!   partial function.
//!
//! # Soundness posture (chase-left-only)
//!
//! Only the left query is rewritten; the right side gets the disjointness
//! dead-check and nothing more. Strengthening the left with implied atoms
//! is sound (the compiled query is equivalent to the original on every
//! constraint-legal state), so a **holds** verdict under the theory is
//! sound. A **fails** verdict may be incomplete: a deeper chase than
//! [`MAX_CHASE_ROUNDS`] rounds, or a rewriting of the right side, could
//! rescue containment in principle. The soundness oracle therefore treats
//! an unconfirmed constrained *fails* as weak evidence, not a violation —
//! mirroring how the paper's own calculus is complete only for the exact
//! fragment it formalizes.
//!
//! # Certificates
//!
//! When the theory rewrites the left query, witnesses and failing
//! augmentations refer to the **compiled** left query (chase witnesses are
//! genuinely new variables). [`compiled_left`] recomputes that query so
//! callers — the service's `explain`, the oracle's steering — can render
//! and steer against the same variable space the certificate uses.

use crate::branch::EngineConfig;
use crate::budget::Budget;
use crate::containment::{decide_plain, Strategy};
use crate::error::CoreError;
use crate::expand::expand_satisfiable_inner;
use crate::explain::Containment;
use crate::satisfiability::{self, Satisfiability, UnsatReason};
use oocq_query::{Atom, Query, QueryAnalysis, Term, VarId};
use oocq_schema::{Constraint, Schema};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on totality-chase rounds. Each round may introduce witness
/// variables that themselves fall under a totality constraint, so a cyclic
/// schema (`total C.A` with `A : C`) would chase forever; three rounds keep
/// the compiled query small while covering the chains realistic schemas
/// declare. Deeper implications are deliberately dropped — see the module
/// docs on the fails-incompleteness this buys.
pub const MAX_CHASE_ROUNDS: usize = 3;

/// Upper bound on totality-chase witness variables per compiled query.
/// Every witness ranges over a (usually non-terminal) class, so terminal
/// expansion multiplies the branch walk by that class's terminal fan-out
/// per witness; a cyclic totality touching `k` variables would add `3k`
/// witnesses under the round bound alone. A round that would push past
/// this cap is skipped wholesale, which narrows the rewriting but never
/// unsounds it (see [`MAX_CHASE_ROUNDS`] on the completeness posture).
pub const MAX_CHASE_VARS: usize = 4;

/// Which side of `Q₁ ⊆ Q₂` a query is being compiled for.
///
/// The distinction matters because rewriting is only sound on the left:
/// adding theory-implied atoms to `Q₁` preserves its answers on legal
/// states, while adding them to `Q₂` could manufacture containments the
/// theory does not justify. Right-side compilation is therefore restricted
/// to pure unsatisfiability checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The contained side `Q₁` — full rewriting allowed.
    Left,
    /// The containing side `Q₂` — dead-range checking only.
    Right,
}

/// The outcome of compiling one query under a [`Theory`].
#[derive(Clone, Debug)]
pub enum Compiled {
    /// The theory has nothing to add; use the query as-is.
    Unchanged,
    /// The query strengthened with theory-implied atoms (left side only).
    Rewritten(Query),
    /// No constraint-legal state satisfies the query.
    Unsatisfiable(UnsatReason),
}

/// A rewriting of containment questions relative to a background theory of
/// the schema.
///
/// Implementations must be pure: `compile` may depend only on the schema,
/// the query, and the theory's own construction-time state, so that equal
/// fingerprints imply equal compilations — the cache and singleflight
/// layers key on [`Theory::fingerprint`] and rely on exactly this.
pub trait Theory: Send + Sync + std::fmt::Debug {
    /// A stable identity string for cache and flight keying. Two theories
    /// with the same fingerprint must compile every query identically.
    fn fingerprint(&self) -> Arc<str>;

    /// `true` when the theory is the identity rewriting. An identity
    /// theory installed on [`EngineConfig::theory`] disables theory
    /// processing entirely — including the automatic constraint theory a
    /// constrained schema would otherwise get.
    fn is_identity(&self) -> bool {
        false
    }

    /// Compile `q` for the given side, charging `budget` for the work.
    fn compile(
        &self,
        schema: &Schema,
        side: Side,
        q: &Query,
        budget: &Budget,
    ) -> Result<Compiled, CoreError>;
}

/// The identity theory: compiles every query to [`Compiled::Unchanged`].
///
/// Installing it on [`EngineConfig::theory`] is an explicit opt-out: the
/// engine decides with the plain calculus even when the schema declares
/// constraints. Differential tests use it to pin that the theory hook is
/// observationally invisible on constraint-free schemas.
#[derive(Clone, Copy, Default, Debug)]
pub struct EmptyTheory;

impl Theory for EmptyTheory {
    fn fingerprint(&self) -> Arc<str> {
        Arc::from("")
    }

    fn is_identity(&self) -> bool {
        true
    }

    fn compile(
        &self,
        _schema: &Schema,
        _side: Side,
        _q: &Query,
        _budget: &Budget,
    ) -> Result<Compiled, CoreError> {
        Ok(Compiled::Unchanged)
    }
}

/// The declared-constraint theory of a schema: disjointness dead-checks on
/// both sides, totality chase and functionality equalities on the left.
/// See the module docs for the semantics and the soundness posture.
#[derive(Clone, Debug)]
pub struct ConstraintTheory {
    fingerprint: Arc<str>,
}

impl ConstraintTheory {
    /// The theory of `schema`'s declared constraints. The fingerprint is
    /// the schema's canonical constraint text, so two schemas with the same
    /// rendered constraints share a theory identity.
    pub fn for_schema(schema: &Schema) -> ConstraintTheory {
        ConstraintTheory {
            fingerprint: Arc::clone(schema.constraints_text()),
        }
    }
}

/// Does `q` already bind attribute `a` on variable `v` — via an equality
/// mentioning the term `v.a` (object attributes) or a membership in `v.a`
/// (set attributes)? Bound attributes are skipped by the totality chase.
fn binds_attr(q: &Query, v: VarId, a: oocq_schema::AttrId) -> bool {
    q.atoms().iter().any(|atom| match atom {
        Atom::Eq(s, t) => {
            matches!(s, Term::Attr(w, b) if *w == v && *b == a)
                || matches!(t, Term::Attr(w, b) if *w == v && *b == a)
        }
        Atom::Member(_, w, b) => *w == v && *b == a,
        _ => false,
    })
}

/// Is the variable's range provably inside `c`? Range atoms are
/// disjunctions, so this requires *every* disjunct to be a subclass of `c`.
/// Variables without a range atom are never provably anywhere.
fn range_within(schema: &Schema, q: &Query, v: VarId, c: oocq_schema::ClassId) -> bool {
    match q.range_of(v) {
        Some(classes) if !classes.is_empty() => classes.iter().all(|&d| schema.is_subclass(d, c)),
        _ => false,
    }
}

impl Theory for ConstraintTheory {
    fn fingerprint(&self) -> Arc<str> {
        Arc::clone(&self.fingerprint)
    }

    fn compile(
        &self,
        schema: &Schema,
        side: Side,
        q: &Query,
        budget: &Budget,
    ) -> Result<Compiled, CoreError> {
        // Disjointness: a range whose every admissible terminal class is
        // dead has no constraint-legal instance. Applies to both sides.
        for v in q.vars() {
            if let Some(classes) = q.range_of(v) {
                budget.charge(1)?;
                let alive = classes.iter().any(|&c| {
                    schema
                        .terminal_descendants(c)
                        .iter()
                        .any(|&t| !schema.is_dead_terminal(t))
                });
                if !alive {
                    return Ok(Compiled::Unsatisfiable(UnsatReason::DeadRange {
                        var: q.var_name(v).to_owned(),
                    }));
                }
            }
        }
        if side == Side::Right {
            return Ok(Compiled::Unchanged);
        }

        let mut cur = q.clone();
        let mut changed = false;

        // Functionality: members of the same functional `y.A` are equal.
        // One pass suffices — the chase below never adds a member to an
        // attribute that already has one, so no new pairs arise later.
        let mut eqs: Vec<Atom> = Vec::new();
        for &c in schema.constraints() {
            let Constraint::Functional(class, attr) = c else {
                continue;
            };
            let mut owners: Vec<(VarId, VarId)> = Vec::new(); // (owner, member)
            for atom in cur.atoms() {
                if let Atom::Member(m, y, a) = atom {
                    if *a == attr && range_within(schema, &cur, *y, class) {
                        owners.push((*y, *m));
                    }
                }
            }
            owners.sort();
            for w in owners.windows(2) {
                let ((y1, m1), (y2, m2)) = (w[0], w[1]);
                if y1 == y2 && m1 != m2 {
                    let eq = Atom::Eq(Term::Var(m1), Term::Var(m2));
                    if !cur.atoms().contains(&eq) && !eqs.contains(&eq) {
                        budget.charge(1)?;
                        eqs.push(eq);
                    }
                }
            }
        }
        if !eqs.is_empty() {
            STATS
                .functional_eqs
                .fetch_add(eqs.len() as u64, Ordering::Relaxed);
            cur = cur.with_extra_atoms(eqs);
            changed = true;
        }

        // Totality chase: a variable provably in `C` must have a value for
        // (a member in) every total `C.A`. Bounded rounds — witnesses may
        // themselves fall under a totality constraint.
        //
        // Each chase witness ranges over a (typically non-terminal) class,
        // so terminal expansion later multiplies the branch count by its
        // terminal fan-out *per witness* — a cyclic totality over several
        // variables would otherwise inflate the walk by |T(C)|^(3·vars).
        // [`MAX_CHASE_VARS`] caps the total witnesses per compile: a round
        // that would exceed it is skipped wholesale (deterministic), which
        // only narrows the rewriting — holds verdicts stay sound, and the
        // fails direction was already documented as incomplete.
        let mut chase_vars = 0usize;
        for _round in 0..MAX_CHASE_ROUNDS {
            // Collect this round's obligations against a stable snapshot,
            // then apply them; a witness added here is chased next round.
            let mut todo: Vec<(VarId, oocq_schema::AttrId, oocq_schema::AttrType)> = Vec::new();
            for &c in schema.constraints() {
                let Constraint::Total(class, attr) = c else {
                    continue;
                };
                let Some(ty) = schema.attr_type(class, attr) else {
                    continue; // validated at Schema::finish; defensive
                };
                for v in cur.vars() {
                    if range_within(schema, &cur, v, class) && !binds_attr(&cur, v, attr) {
                        todo.push((v, attr, ty));
                    }
                }
            }
            if todo.is_empty() {
                break;
            }
            if chase_vars + todo.len() > MAX_CHASE_VARS {
                break;
            }
            chase_vars += todo.len();
            for (v, attr, ty) in todo {
                budget.charge(4)?;
                let name = format!("{}_{}", cur.var_name(v), schema.attr_name(attr));
                let (next, w) = cur.with_fresh_var(&name);
                let value = if ty.is_set() {
                    Atom::Member(w, v, attr)
                } else {
                    Atom::Eq(Term::Attr(v, attr), Term::Var(w))
                };
                cur = next.with_extra_atoms([Atom::Range(w, vec![ty.class()]), value]);
                STATS.chase_atoms.fetch_add(2, Ordering::Relaxed);
                changed = true;
            }
        }

        Ok(if changed {
            Compiled::Rewritten(cur)
        } else {
            Compiled::Unchanged
        })
    }
}

struct TheoryCounters {
    decisions: AtomicU64,
    left_rewrites: AtomicU64,
    left_unsat: AtomicU64,
    right_unsat: AtomicU64,
    chase_atoms: AtomicU64,
    functional_eqs: AtomicU64,
    dead_branches: AtomicU64,
}

static STATS: TheoryCounters = TheoryCounters {
    decisions: AtomicU64::new(0),
    left_rewrites: AtomicU64::new(0),
    left_unsat: AtomicU64::new(0),
    right_unsat: AtomicU64::new(0),
    chase_atoms: AtomicU64::new(0),
    functional_eqs: AtomicU64::new(0),
    dead_branches: AtomicU64::new(0),
};

/// A snapshot of the process-wide theory instrumentation. Counters only
/// grow; the service's `stats show` reports them alongside the cache and
/// flight counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TheoryStats {
    /// Terminal decisions routed through a theory.
    pub decisions: u64,
    /// Decisions whose left query the theory rewrote.
    pub left_rewrites: u64,
    /// Decisions closed vacuously because the compiled left query is
    /// unsatisfiable under the constraints.
    pub left_unsat: u64,
    /// Decisions failed because the right query is unsatisfiable under the
    /// constraints (while the left is not).
    pub right_unsat: u64,
    /// Atoms added by the totality chase.
    pub chase_atoms: u64,
    /// Equality atoms added by functionality compilation.
    pub functional_eqs: u64,
    /// Expansion branches of a compiled left query skipped as
    /// constraint-dead or unsatisfiable.
    pub dead_branches: u64,
}

/// Read the process-wide theory counters.
pub fn theory_stats() -> TheoryStats {
    TheoryStats {
        decisions: STATS.decisions.load(Ordering::Relaxed),
        left_rewrites: STATS.left_rewrites.load(Ordering::Relaxed),
        left_unsat: STATS.left_unsat.load(Ordering::Relaxed),
        right_unsat: STATS.right_unsat.load(Ordering::Relaxed),
        chase_atoms: STATS.chase_atoms.load(Ordering::Relaxed),
        functional_eqs: STATS.functional_eqs.load(Ordering::Relaxed),
        dead_branches: STATS.dead_branches.load(Ordering::Relaxed),
    }
}

/// The theory governing a decision, if any: an explicit
/// [`EngineConfig::theory`] wins (its identity variant disables theories
/// outright), otherwise a schema with declared constraints gets the
/// automatic [`ConstraintTheory`].
///
/// The automatic case is safe to cache under schema-fingerprint keys — the
/// fingerprint is the schema's `Display` text, which includes the
/// constraint block — while explicit theories bypass decision caches (see
/// [`EngineConfig::decision_cache`](crate::EngineConfig)).
pub(crate) fn active_theory(cfg: &EngineConfig, schema: &Schema) -> Option<Arc<dyn Theory>> {
    if let Some(t) = &cfg.theory {
        if t.is_identity() {
            None
        } else {
            Some(Arc::clone(t))
        }
    } else if schema.has_constraints() {
        Some(Arc::new(ConstraintTheory::for_schema(schema)))
    } else {
        None
    }
}

/// The left query as the active theory would compile it — the variable
/// space certificates refer to when a theory rewrites the left side.
///
/// Returns a clone of `q` when no theory is active, when the theory leaves
/// the query unchanged, or when the compiled query is unsatisfiable (the
/// certificate is then a bare [`Containment::HoldsVacuously`] with no
/// variable references to resolve).
pub fn compiled_left(schema: &Schema, q: &Query, cfg: &EngineConfig) -> Result<Query, CoreError> {
    match active_theory(cfg, schema) {
        Some(theory) => match theory.compile(schema, Side::Left, q, &cfg.budget)? {
            Compiled::Rewritten(qc) => Ok(qc),
            Compiled::Unchanged | Compiled::Unsatisfiable(_) => Ok(q.clone()),
        },
        None => Ok(q.clone()),
    }
}

/// Decide `q1 ⊆ q2` relative to `theory`: compile both sides, expand a
/// non-terminal compiled left query into its live terminal branches, and
/// run each branch through the plain Theorem 3.1 engine.
///
/// Check order mirrors the plain path so verdict kinds line up: left
/// unsatisfiability (vacuous holds) is established before the right side's
/// unsatisfiability (fails) is reported.
pub(crate) fn decide_pair_with_theory(
    theory: &dyn Theory,
    schema: &Schema,
    q1: &Query,
    q2: &Query,
    strategy: Strategy,
    cfg: &EngineConfig,
    collect: bool,
) -> Result<Containment, CoreError> {
    STATS.decisions.fetch_add(1, Ordering::Relaxed);
    // The plain path requires terminal inputs (satisfiability errors with
    // `NotTerminal` otherwise); preserve that contract before compiling.
    satisfiability::var_classes(schema, q1)?;
    satisfiability::var_classes(schema, q2)?;

    let q1c = match theory.compile(schema, Side::Left, q1, &cfg.budget)? {
        Compiled::Unsatisfiable(reason) => {
            STATS.left_unsat.fetch_add(1, Ordering::Relaxed);
            return Ok(Containment::HoldsVacuously(reason));
        }
        Compiled::Unchanged => q1.clone(),
        Compiled::Rewritten(q) => {
            STATS.left_rewrites.fetch_add(1, Ordering::Relaxed);
            q
        }
    };

    // Left branches: the compiled query itself when terminal, otherwise its
    // satisfiable terminal expansion with constraint-dead branches dropped.
    let branches: Vec<Query> = if q1c.is_terminal(schema) {
        if let Satisfiability::Unsatisfiable(reason) = satisfiability::satisfiability(schema, &q1c)?
        {
            return Ok(Containment::HoldsVacuously(reason));
        }
        vec![q1c]
    } else {
        let expanded = expand_satisfiable_inner(schema, &q1c, cfg, None, &QueryAnalysis::of(&q1c))?;
        let mut alive = Vec::new();
        for b in expanded.queries() {
            // Branch filtering is a dead-range check only (Side::Right
            // semantics): re-chasing instantiated witnesses could recurse
            // indefinitely, and a missed chase round only weakens *fails*
            // verdicts, which are already incomplete under a theory.
            match theory.compile(schema, Side::Right, b, &cfg.budget)? {
                Compiled::Unsatisfiable(_) => {
                    STATS.dead_branches.fetch_add(1, Ordering::Relaxed);
                }
                _ => alive.push(b.clone()),
            }
        }
        if alive.is_empty() {
            return Ok(Containment::HoldsVacuously(UnsatReason::NoLegalBranch {
                var: q1.var_name(q1.free_var()).to_owned(),
            }));
        }
        alive
    };

    if let Compiled::Unsatisfiable(reason) = theory.compile(schema, Side::Right, q2, &cfg.budget)? {
        STATS.right_unsat.fetch_add(1, Ordering::Relaxed);
        return Ok(Containment::FailsRightUnsatisfiable(reason));
    }

    let mut witnesses = Vec::new();
    for b in &branches {
        match decide_plain(schema, b, q2, strategy, cfg, collect)? {
            Containment::HoldsVacuously(_) => {} // branch contributes nothing
            Containment::Holds(ws) => witnesses.extend(ws),
            fails @ (Containment::Fails { .. } | Containment::FailsRightUnsatisfiable(_)) => {
                return Ok(fails);
            }
        }
    }
    Ok(Containment::Holds(witnesses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecisionCache, Engine, PreparedQuery, PreparedSchema};
    use oocq_query::{QueryBuilder, UnionQuery};
    use oocq_schema::SchemaBuilder;
    use std::sync::atomic::AtomicUsize;

    /// `decide` over fresh handles of `q1` and `q2`, on an engine with `cfg`.
    fn on_engine<T>(
        s: &Schema,
        q1: &Query,
        q2: &Query,
        cfg: &EngineConfig,
        decide: impl Fn(&Engine, &PreparedQuery, &PreparedQuery) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let ps = PreparedSchema::new(s);
        let (p1, p2) = (
            PreparedQuery::new(&ps, q1.clone()),
            PreparedQuery::new(&ps, q2.clone()),
        );
        decide(&Engine::new(cfg.clone()), &p1, &p2)
    }

    /// `class P {} class Q {} class B {} class T1 : B {} class T2 : B, P, Q {}`
    /// with `constraint disjoint P Q;` — the common descendant `T2` is dead.
    fn disjoint_schema(with_constraint: bool) -> Schema {
        let mut b = SchemaBuilder::new();
        let p = b.class("P").unwrap();
        let q = b.class("Q").unwrap();
        let base = b.class("B").unwrap();
        let t1 = b.class("T1").unwrap();
        let t2 = b.class("T2").unwrap();
        b.subclass(t1, base).unwrap();
        b.subclass(t2, base).unwrap();
        b.subclass(t2, p).unwrap();
        b.subclass(t2, q).unwrap();
        if with_constraint {
            b.constraint(Constraint::Disjoint(p, q));
        }
        b.finish().unwrap()
    }

    fn range_query(s: &Schema, class: &str) -> Query {
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [s.class_id(class).unwrap()]);
        b.build()
    }

    /// `class U {} class T { F : U }` with `constraint total T.F;`.
    fn total_schema(with_constraint: bool) -> Schema {
        let mut b = SchemaBuilder::new();
        let u = b.class("U").unwrap();
        let t = b.class("T").unwrap();
        let f = b
            .attribute(t, "F", oocq_schema::AttrType::Object(u))
            .unwrap();
        if with_constraint {
            b.constraint(Constraint::Total(t, f));
        }
        b.finish().unwrap()
    }

    /// `class D {} class M { A : D  B : D } class C { Items : {M} }` with
    /// `constraint functional C.Items;`.
    fn functional_schema(with_constraint: bool) -> Schema {
        let mut b = SchemaBuilder::new();
        let d = b.class("D").unwrap();
        let m = b.class("M").unwrap();
        let c = b.class("C").unwrap();
        b.attribute(m, "A", oocq_schema::AttrType::Object(d))
            .unwrap();
        b.attribute(m, "B", oocq_schema::AttrType::Object(d))
            .unwrap();
        let items = b
            .attribute(c, "Items", oocq_schema::AttrType::SetOf(m))
            .unwrap();
        if with_constraint {
            b.constraint(Constraint::Functional(c, items));
        }
        b.finish().unwrap()
    }

    #[test]
    fn disjointness_flips_fails_to_holds_on_positive_containment() {
        // {x | x in B} ⊆ {x | x in T1}: plainly false (the T2 branch
        // escapes), true once disjointness kills T2.
        let plain = disjoint_schema(false);
        let constrained = disjoint_schema(true);
        let cfg = EngineConfig::serial();
        let q1 = range_query(&plain, "B");
        let q2 = range_query(&plain, "T1");
        assert!(!on_engine(&plain, &q1, &q2, &cfg, Engine::contains_positive).unwrap());
        assert!(!on_engine(&plain, &q1, &q2, &cfg, Engine::dispatch).unwrap());
        assert!(on_engine(&constrained, &q1, &q2, &cfg, Engine::contains_positive).unwrap());
        assert!(on_engine(&constrained, &q1, &q2, &cfg, Engine::dispatch).unwrap());
    }

    #[test]
    fn disjointness_changes_verdict_kinds_on_dead_terminals() {
        let plain = disjoint_schema(false);
        let constrained = disjoint_schema(true);
        let cfg = EngineConfig::serial();
        let t2 = range_query(&plain, "T2");
        let t1 = range_query(&plain, "T1");
        // Dead left: Holds -> HoldsVacuously.
        assert!(matches!(
            on_engine(&plain, &t2, &t2, &cfg, Engine::decide).unwrap(),
            Containment::Holds(_)
        ));
        assert!(matches!(
            on_engine(&constrained, &t2, &t2, &cfg, Engine::decide).unwrap(),
            Containment::HoldsVacuously(UnsatReason::DeadRange { .. })
        ));
        // Dead right: Fails -> FailsRightUnsatisfiable.
        assert!(matches!(
            on_engine(&plain, &t1, &t2, &cfg, Engine::decide).unwrap(),
            Containment::Fails { .. }
        ));
        assert!(matches!(
            on_engine(&constrained, &t1, &t2, &cfg, Engine::decide).unwrap(),
            Containment::FailsRightUnsatisfiable(UnsatReason::DeadRange { .. })
        ));
    }

    #[test]
    fn totality_flips_fails_to_holds_via_the_chase() {
        // {x | x in T} ⊆ {x | x in T, u in U, x.F = u}: plainly false (no
        // value for u), true when `total T.F` chases a witness in.
        let plain = total_schema(false);
        let constrained = total_schema(true);
        let cfg = EngineConfig::serial();
        let q1 = range_query(&plain, "T");
        let u_id = plain.class_id("U").unwrap();
        let f = plain.attr_id("F").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let u = b.var("u");
        b.range(x, [plain.class_id("T").unwrap()]);
        b.range(u, [u_id]);
        b.eq(Term::Attr(x, f), Term::Var(u));
        let q2 = b.build();
        assert!(matches!(
            on_engine(&plain, &q1, &q2, &cfg, Engine::decide).unwrap(),
            Containment::Fails { .. }
        ));
        let verdict = on_engine(&constrained, &q1, &q2, &cfg, Engine::decide).unwrap();
        assert!(matches!(&verdict, Containment::Holds(ws) if !ws.is_empty()));
        // The witness maps u to the chase variable, which lives beyond
        // q1's variable space; rendering against the compiled left query
        // resolves it, and rendering against q1 degrades gracefully.
        let q1c = compiled_left(&constrained, &q1, &cfg).unwrap();
        assert!(q1c.var_count() > q1.var_count());
        let rendered = verdict.render(&constrained, &q1c, &q2);
        assert!(rendered.contains("x_F"), "{rendered}");
        let degraded = verdict.render(&constrained, &q1, &q2);
        assert!(degraded.contains("_v1"), "{degraded}");
    }

    #[test]
    fn functionality_flips_fails_to_holds_by_merging_members() {
        // Q1 knows x.A (via one member) and y.B (via the other); Q2 wants
        // one member with both attributes bound. Functionality of Items
        // equates x and y, pooling their facts.
        let plain = functional_schema(false);
        let constrained = functional_schema(true);
        let cfg = EngineConfig::serial();
        let (c, m, d) = (
            plain.class_id("C").unwrap(),
            plain.class_id("M").unwrap(),
            plain.class_id("D").unwrap(),
        );
        let (a, bb, items) = (
            plain.attr_id("A").unwrap(),
            plain.attr_id("B").unwrap(),
            plain.attr_id("Items").unwrap(),
        );
        let mut b = QueryBuilder::new("w");
        let w = b.free();
        let x = b.var("x");
        let y = b.var("y");
        let u = b.var("u");
        let v = b.var("v");
        b.range(w, [c])
            .range(x, [m])
            .range(y, [m])
            .range(u, [d])
            .range(v, [d]);
        b.member(x, w, items).member(y, w, items);
        b.eq(Term::Attr(x, a), Term::Var(u));
        b.eq(Term::Attr(y, bb), Term::Var(v));
        let q1 = b.build();

        let mut b = QueryBuilder::new("w");
        let w2 = b.free();
        let mm = b.var("m");
        let u2 = b.var("u");
        let v2 = b.var("v");
        b.range(w2, [c])
            .range(mm, [m])
            .range(u2, [d])
            .range(v2, [d]);
        b.member(mm, w2, items);
        b.eq(Term::Attr(mm, a), Term::Var(u2));
        b.eq(Term::Attr(mm, bb), Term::Var(v2));
        let q2 = b.build();

        assert!(matches!(
            on_engine(&plain, &q1, &q2, &cfg, Engine::decide).unwrap(),
            Containment::Fails { .. }
        ));
        assert!(on_engine(&constrained, &q1, &q2, &cfg, Engine::decide)
            .unwrap()
            .holds());
    }

    #[test]
    fn empty_theory_opts_out_of_schema_constraints() {
        let constrained = disjoint_schema(true);
        let cfg = EngineConfig::serial().with_theory(Arc::new(EmptyTheory));
        let t2 = range_query(&constrained, "T2");
        // With the identity theory installed, the constrained schema
        // decides exactly like the plain calculus.
        assert!(matches!(
            on_engine(&constrained, &t2, &t2, &cfg, Engine::decide).unwrap(),
            Containment::Holds(_)
        ));
    }

    #[test]
    fn explicit_constraint_theory_on_unconstrained_schema_is_invisible() {
        // The theory-mediated path over an empty constraint set must agree
        // byte-for-byte with the plain path.
        let s = oocq_schema::samples::vehicle_rental();
        let auto = s.class_id("Auto").unwrap();
        let discount = s.class_id("Discount").unwrap();
        let rented = s.attr_id("VehRented").unwrap();
        let mk = |extra: bool| {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            b.range(x, [auto]);
            if extra {
                let y = b.var("y");
                b.range(y, [discount]);
                b.member(x, y, rented);
            }
            b.build()
        };
        let (q_small, q_big) = (mk(false), mk(true));
        let theory: Arc<dyn Theory> = Arc::new(ConstraintTheory::for_schema(&s));
        let plain_cfg = EngineConfig::serial();
        let themed_cfg = EngineConfig::serial().with_theory(theory);
        for (l, r) in [(&q_small, &q_big), (&q_big, &q_small), (&q_big, &q_big)] {
            let plain = on_engine(&s, l, r, &plain_cfg, Engine::decide).unwrap();
            let themed = on_engine(&s, l, r, &themed_cfg, Engine::decide).unwrap();
            assert_eq!(format!("{plain:?}"), format!("{themed:?}"));
        }
    }

    /// A decision cache that counts lookups, for the bypass test.
    #[derive(Default, Debug)]
    struct CountingCache {
        gets: AtomicUsize,
        puts: AtomicUsize,
    }

    impl DecisionCache for CountingCache {
        fn get_contains_prepared(&self, _p1: &PreparedQuery, _p2: &PreparedQuery) -> Option<bool> {
            self.gets.fetch_add(1, Ordering::Relaxed);
            None
        }
        fn put_contains_prepared(&self, _p1: &PreparedQuery, _p2: &PreparedQuery, _holds: bool) {
            self.puts.fetch_add(1, Ordering::Relaxed);
        }
        fn get_minimized_prepared(&self, _p: &PreparedQuery) -> Option<UnionQuery> {
            None
        }
        fn put_minimized_prepared(&self, _p: &PreparedQuery, _r: &UnionQuery) {}
    }

    #[test]
    fn explicit_theory_bypasses_the_decision_cache() {
        let s = disjoint_schema(true);
        let t1 = range_query(&s, "T1");
        let cache = Arc::new(CountingCache::default());

        // No explicit theory: the cache is consulted and fed even though
        // the schema's constraints auto-activate a theory — the schema
        // fingerprint carries the constraint text, so keys cannot collide.
        let cfg = EngineConfig::serial().with_cache(cache.clone());
        assert!(on_engine(&s, &t1, &t1, &cfg, Engine::contains).unwrap());
        assert_eq!(cache.gets.load(Ordering::Relaxed), 1);
        assert_eq!(cache.puts.load(Ordering::Relaxed), 1);

        // An explicit theory (even the identity) suppresses the cache.
        for theory in [
            Arc::new(EmptyTheory) as Arc<dyn Theory>,
            Arc::new(ConstraintTheory::for_schema(&s)) as Arc<dyn Theory>,
        ] {
            let cfg = EngineConfig::serial()
                .with_cache(cache.clone())
                .with_theory(theory);
            assert!(on_engine(&s, &t1, &t1, &cfg, Engine::contains).unwrap());
        }
        assert_eq!(cache.gets.load(Ordering::Relaxed), 1);
        assert_eq!(cache.puts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn theory_counters_accumulate() {
        let before = theory_stats();
        let constrained = total_schema(true);
        let cfg = EngineConfig::serial();
        let q1 = range_query(&constrained, "T");
        on_engine(&constrained, &q1, &q1, &cfg, Engine::decide).unwrap();
        let after = theory_stats();
        assert!(after.decisions > before.decisions);
        assert!(after.left_rewrites > before.left_rewrites);
        assert!(after.chase_atoms > before.chase_atoms);
    }

    #[test]
    fn chase_is_bounded_on_cyclic_totality() {
        // `total T.F` with `F : T` chases forever in principle; the bound
        // keeps the compiled query finite and the verdict sound.
        let mut b = SchemaBuilder::new();
        let t = b.class("T").unwrap();
        let f = b
            .attribute(t, "F", oocq_schema::AttrType::Object(t))
            .unwrap();
        b.constraint(Constraint::Total(t, f));
        let s = b.finish().unwrap();
        let q = range_query(&s, "T");
        let q1c = compiled_left(&s, &q, &EngineConfig::serial()).unwrap();
        assert_eq!(q1c.var_count(), 1 + MAX_CHASE_ROUNDS);
        assert!(
            on_engine(&s, &q, &q, &EngineConfig::serial(), Engine::decide)
                .unwrap()
                .holds()
        );
    }
}
