//! Exact minimization of positive conjunctive queries (§4).
//!
//! The pipeline of §4 turns a positive conjunctive query into an equivalent
//! union of terminal positive conjunctive queries that is
//! **search-space-optimal** among all unions of positive conjunctive
//! queries:
//!
//! 1. expand into a union of terminal queries (Proposition 2.1) and drop the
//!    unsatisfiable subqueries;
//! 2. remove redundant subqueries (a `Qᵢ` contained in some other `Qⱼ`),
//!    yielding a *nonredundant* union — unique up to per-subquery
//!    equivalence by Theorem 4.2;
//! 3. minimize the variables of each remaining subquery by repeatedly
//!    folding it through a non-contradictory self-mapping that preserves the
//!    free variable (Theorem 4.3); by Corollary 4.4 the query is minimal
//!    exactly when every such self-map is bijective.
//!
//! Optimality is measured by [`search_space_cost`]: the number of
//! occurrences of each terminal class in `term-class(Q, x)` summed over the
//! variables `x` — the objects the query logically accesses.

use crate::branch::EngineConfig;
use crate::derive::{find_mapping, MappingGoal, TargetData};
use crate::engine::{one_shot, Engine, PreparedSchema};
use crate::error::CoreError;
use crate::satisfiability::{is_satisfiable, var_classes};
use oocq_query::{isomorphic, Atom, Query, UnionQuery};
use oocq_schema::{ClassId, Schema};
use std::collections::BTreeMap;

/// `term-class(Q, x)` (§4): the terminal descendant classes the variable `x`
/// ranges over in `Q`.
pub fn term_class(schema: &Schema, q: &Query, x: oocq_query::VarId) -> Vec<ClassId> {
    let mut out: Vec<ClassId> = q
        .range_of(x)
        .into_iter()
        .flatten()
        .flat_map(|&c| schema.terminal_descendants(c))
        .copied()
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The search-space cost of one conjunctive query: for each terminal class,
/// the number of occurrences in `term-class(Q, y)` over all variables `y`.
pub fn search_space_cost(schema: &Schema, q: &Query) -> BTreeMap<ClassId, usize> {
    let mut cost = BTreeMap::new();
    for v in q.vars() {
        for c in term_class(schema, q, v) {
            *cost.entry(c).or_insert(0) += 1;
        }
    }
    cost
}

/// The search-space cost of a union: the sum over its subqueries.
pub fn union_cost(schema: &Schema, u: &UnionQuery) -> BTreeMap<ClassId, usize> {
    let mut cost = BTreeMap::new();
    for q in u {
        for (c, n) in search_space_cost(schema, q) {
            *cost.entry(c).or_insert(0) += n;
        }
    }
    cost
}

/// Componentwise comparison of costs: `a ≤ b` iff every terminal class
/// occurs in `a` at most as often as in `b` (§4's "more optimal" condition 2
/// — condition 1, equivalence, is checked separately).
pub fn cost_leq(a: &BTreeMap<ClassId, usize>, b: &BTreeMap<ClassId, usize>) -> bool {
    a.iter().all(|(c, &n)| n <= b.get(c).copied().unwrap_or(0))
}

/// Remove redundant subqueries from a union of terminal positive conjunctive
/// queries: unsatisfiable subqueries are dropped, then any `Qᵢ` contained in
/// a retained `Qⱼ` (`j ≠ i`) is dropped, keeping the first representative of
/// each equivalence group.
pub fn nonredundant_union(schema: &Schema, u: &UnionQuery) -> Result<UnionQuery, CoreError> {
    Engine::serial().nonredundant_union(&PreparedSchema::new(schema).prepare_union(u))
}

/// For a slice of satisfiable terminal positive queries: which are redundant
/// (contained in a retained other)? Equivalent groups keep their first
/// member. `contains(i, j)` decides `sat[i] ⊆ sat[j]`: the [`Engine`]'s
/// minimization, report and nonredundant-union sweeps each pass
/// [`Engine::contains`] over their own handles and share this one sweep.
pub(crate) fn redundancy_flags(
    sat: &[&Query],
    cfg: &EngineConfig,
    mut contains: impl FnMut(usize, usize) -> Result<bool, CoreError>,
) -> Result<Vec<bool>, CoreError> {
    let n = sat.len();
    // contains[i][j] = Qᵢ ⊆ Qⱼ.
    let mut cont = vec![vec![false; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            // One unit per pair: the O(n²) sweep is the §4 pipeline's own
            // contribution to the blowup, over and above the per-pair
            // Theorem 3.1 work (which charges the same budget internally).
            cfg.budget.charge(1)?;
            // Expansion branches of one query are frequently renamed copies
            // of each other; isomorphic queries are equivalent, so both
            // directions hold without running Theorem 3.1.
            if cfg.iso_fast_path && isomorphic(sat[i], sat[j]) {
                cont[i][j] = true;
                cont[j][i] = true;
            } else {
                cont[i][j] = contains(i, j)?;
                cont[j][i] = contains(j, i)?;
            }
        }
    }
    let mut dropped = vec![false; n];
    for i in 0..n {
        if dropped[i] {
            continue;
        }
        for j in 0..n {
            if i == j || dropped[j] || !cont[i][j] {
                continue;
            }
            if cont[j][i] {
                // Equivalent pair: keep the earlier one.
                if j < i {
                    dropped[i] = true;
                    break;
                }
            } else {
                // Strictly contained: redundant.
                dropped[i] = true;
                break;
            }
        }
    }
    Ok(dropped)
}

/// Drop trivially-true reflexive equality atoms `t = t` produced by folding.
fn drop_reflexive_eq(q: &Query) -> Query {
    let identity: Vec<_> = q.vars().collect();
    let folded = q.apply_mapping(&identity); // sorts + dedups atoms
    let atoms: Vec<Atom> = folded
        .atoms()
        .iter()
        .filter(|a| !matches!(a, Atom::Eq(s, t) if s == t))
        .cloned()
        .collect();
    let mut b = oocq_query::QueryBuilder::new(folded.var_name(folded.free_var()));
    let mut ids = Vec::with_capacity(folded.var_count());
    for v in folded.vars() {
        if v == folded.free_var() {
            ids.push(b.free());
        } else {
            ids.push(b.var(folded.var_name(v)));
        }
    }
    for a in atoms {
        b.atom(a.map_vars(|v| ids[v.index()]));
    }
    b.build()
}

/// Minimize the variables of a satisfiable terminal positive conjunctive
/// query (Theorem 4.3 / Corollary 4.4): repeatedly fold the query through a
/// non-surjective non-contradictory self-mapping that preserves the free
/// variable, until every such self-mapping is bijective.
pub fn minimize_terminal_positive(schema: &Schema, q: &Query) -> Result<Query, CoreError> {
    if !q.is_positive() {
        return Err(CoreError::NotPositive);
    }
    let free_name = q.var_name(q.free_var()).to_owned();
    let mut cur = q.clone();
    cur.dedup_atoms();
    if !is_satisfiable(schema, &cur)? {
        return Ok(cur);
    }
    'outer: loop {
        let classes = var_classes(schema, &cur)?;
        let free = cur.free_var();
        let data = TargetData::new(schema, cur.clone())?;
        let ctx = data.ctx(schema);
        for drop in cur.vars() {
            let goal = MappingGoal {
                source: data.query(),
                source_classes: &classes,
                free_anchor: free,
                avoid_in_image: Some(drop),
            };
            if let Some(map) = find_mapping(&ctx, &goal) {
                cur = drop_reflexive_eq(&cur.apply_mapping(&map));
                continue 'outer;
            }
        }
        break;
    }
    // Cosmetic: if folding renamed the answer variable (it may map the free
    // variable to an equated partner), restore the original name when free.
    if cur.var_name(cur.free_var()) != free_name
        && !cur.vars().any(|v| cur.var_name(v) == free_name)
    {
        let fv = cur.free_var();
        cur.rename_var(fv, &free_name);
    }
    Ok(cur)
}

/// Is the terminal positive query minimal already (Corollary 4.4: every
/// non-contradictory free-variable-preserving self-mapping is bijective)?
pub fn is_minimal_terminal_positive(schema: &Schema, q: &Query) -> Result<bool, CoreError> {
    if !q.is_positive() {
        return Err(CoreError::NotPositive);
    }
    if !is_satisfiable(schema, q)? {
        return Ok(true);
    }
    let classes = var_classes(schema, q)?;
    let data = TargetData::new(schema, q.clone())?;
    let ctx = data.ctx(schema);
    for drop in q.vars() {
        let goal = MappingGoal {
            source: data.query(),
            source_classes: &classes,
            free_anchor: q.free_var(),
            avoid_in_image: Some(drop),
        };
        if find_mapping(&ctx, &goal).is_some() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A full trace of the §4 pipeline produced by
/// [`Engine::minimize_report`]: what was expanded, which branches died and
/// why, what was dropped as redundant, and which subqueries folded.
#[derive(Clone, Debug)]
pub struct MinimizationReport {
    /// The normalized input (§2.3 repairs applied).
    pub normalized: Query,
    /// Size of the terminal expansion (Proposition 2.1).
    pub expanded: usize,
    /// Unsatisfiable branches, with reasons (Theorem 2.2).
    pub unsatisfiable: Vec<(Query, crate::satisfiability::UnsatReason)>,
    /// Branches dropped as redundant (Theorem 4.2).
    pub redundant: Vec<Query>,
    /// Variable folds: `(before, after)` for each subquery that shrank
    /// (Theorems 4.3–4.5).
    pub folds: Vec<(Query, Query)>,
    /// The search-space-optimal result.
    pub result: UnionQuery,
}

impl MinimizationReport {
    /// Render the whole trace with resolved names.
    pub fn render(&self, schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "normalized: {}", self.normalized.display(schema));
        let _ = writeln!(
            out,
            "expanded: {} branch(es), {} unsatisfiable, {} redundant",
            self.expanded,
            self.unsatisfiable.len(),
            self.redundant.len()
        );
        for (q, reason) in &self.unsatisfiable {
            let _ = writeln!(out, "  unsat: {}  ({reason})", q.display(schema));
        }
        for q in &self.redundant {
            let _ = writeln!(out, "  redundant: {}", q.display(schema));
        }
        for (before, after) in &self.folds {
            let _ = writeln!(
                out,
                "  folded {} -> {} vars: {}",
                before.var_count(),
                after.var_count(),
                after.display(schema)
            );
        }
        let _ = writeln!(out, "result: {}", self.result.display(schema));
        out
    }
}

/// [`minimize_positive`] with a full pipeline trace.
pub fn minimize_positive_report(
    schema: &Schema,
    q: &Query,
) -> Result<MinimizationReport, CoreError> {
    let [p] = one_shot(schema, [q]);
    Engine::serial().minimize_report(&p)
}

/// The full §4 pipeline: an exact, search-space-optimal minimization of a
/// positive conjunctive query, returned as a union of minimal terminal
/// positive conjunctive queries.
///
/// The input is normalized first (§2.3), so conditions (ii)/(iii) need not
/// hold on entry. The empty union is returned for unsatisfiable queries.
///
/// # Examples
///
/// The paper's Example 1.1: typing narrows `Vehicle` to `Auto`.
///
/// ```
/// use oocq_core::minimize_positive;
/// use oocq_query::QueryBuilder;
/// use oocq_schema::samples;
///
/// let s = samples::vehicle_rental();
/// let mut b = QueryBuilder::new("x");
/// let x = b.free();
/// let y = b.var("y");
/// b.range(x, [s.class_id("Vehicle").unwrap()]);
/// b.range(y, [s.class_id("Discount").unwrap()]);
/// b.member(x, y, s.attr_id("VehRented").unwrap());
/// let optimal = minimize_positive(&s, &b.build()).unwrap();
/// assert_eq!(
///     optimal.display(&s).to_string(),
///     "{ x | exists y: x in Auto & y in Discount & x in y.VehRented }",
/// );
/// ```
pub fn minimize_positive(schema: &Schema, q: &Query) -> Result<UnionQuery, CoreError> {
    let [p] = one_shot(schema, [q]);
    Engine::serial().minimize(&p)
}

/// The last §4 stage: fold the variables of every subquery
/// [`redundancy_flags`] kept (Theorem 4.3), one budget unit each, for
/// [`Engine::minimize`].
pub(crate) fn fold_survivors(
    schema: &Schema,
    sat: &[&Query],
    dropped: &[bool],
    cfg: &EngineConfig,
) -> Result<UnionQuery, CoreError> {
    let minimized: Result<Vec<Query>, CoreError> = sat
        .iter()
        .zip(dropped)
        .filter(|(_, &d)| !d)
        .map(|(sub, _)| {
            cfg.budget.charge(1)?;
            minimize_terminal_positive(schema, sub)
        })
        .collect();
    Ok(UnionQuery::new(minimized?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocq_query::QueryBuilder;
    use oocq_schema::samples;

    #[test]
    fn example_41_full_pipeline() {
        // Q ≡ Q₂′ ∪ Q₅ with Q₂′ minimized to one bound variable.
        let s = samples::n1_partition();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("s");
        b.range(x, [s.class_id("N1").unwrap()]);
        b.range(y, [s.class_id("G").unwrap()]);
        b.range(z, [s.class_id("H").unwrap()]);
        b.eq_attr(y, x, s.attr_id("B").unwrap());
        b.member(y, x, s.attr_id("A").unwrap());
        b.member(z, x, s.attr_id("A").unwrap());
        let q = b.build();

        let result = minimize_positive(&s, &q).unwrap();
        assert_eq!(result.len(), 2);
        // Q₂′: { x | exists y (x ∈ T₂ & y ∈ H & y = x.B & y ∈ x.A) }.
        let q2p = &result.queries()[0];
        assert_eq!(q2p.var_count(), 2);
        assert_eq!(
            q2p.terminal_class_of(q2p.free_var()),
            Some(s.class_id("T2").unwrap())
        );
        // Q₅ keeps its three variables (y ∈ I and s ∈ H cannot merge).
        let q5 = &result.queries()[1];
        assert_eq!(q5.var_count(), 3);
        assert_eq!(
            q5.terminal_class_of(q5.free_var()),
            Some(s.class_id("T2").unwrap())
        );
    }

    #[test]
    fn example_11_pipeline_rewrites_vehicle_to_auto() {
        let s = samples::vehicle_rental();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        b.range(y, [s.class_id("Discount").unwrap()]);
        b.member(x, y, s.attr_id("VehRented").unwrap());
        let result = minimize_positive(&s, &b.build()).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(
            result.queries()[0].display(&s).to_string(),
            "{ x | exists y: x in Auto & y in Discount & x in y.VehRented }"
        );
    }

    #[test]
    fn folding_collapses_redundant_variables() {
        // x ∈ C with two interchangeable witnesses y, z (same constraints):
        // minimization folds z onto y.
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("z");
        b.range(x, [t2]).range(y, [t1]).range(z, [t1]);
        b.member(y, x, a);
        b.member(z, x, a);
        let q = b.build();
        assert!(!is_minimal_terminal_positive(&s, &q).unwrap());
        let m = minimize_terminal_positive(&s, &q).unwrap();
        assert_eq!(m.var_count(), 2);
        assert!(is_minimal_terminal_positive(&s, &m).unwrap());
        // Folding must preserve equivalence.
        assert!(crate::containment::equivalent_terminal(&s, &q, &m).unwrap());
    }

    #[test]
    fn equated_variable_chains_collapse() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("z");
        b.range(x, [c]).range(y, [c]).range(z, [c]);
        b.eq_vars(x, y).eq_vars(y, z);
        let m = minimize_terminal_positive(&s, &b.build()).unwrap();
        assert_eq!(m.var_count(), 1);
        assert_eq!(m.var_name(m.free_var()), "x");
        assert_eq!(m.atoms().len(), 1); // just the range atom
    }

    #[test]
    fn minimal_query_is_left_alone() {
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [t1]).range(y, [t2]);
        b.member(x, y, a);
        let q = b.build();
        assert!(is_minimal_terminal_positive(&s, &q).unwrap());
        let m = minimize_terminal_positive(&s, &q).unwrap();
        assert!(m.same_modulo_atom_order(&q));
    }

    #[test]
    fn nonredundant_union_drops_contained_and_duplicate_subqueries() {
        let s = samples::vehicle_rental();
        let auto = s.class_id("Auto").unwrap();
        let mk_simple = || {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            b.range(x, [auto]);
            b.build()
        };
        let mk_restricted = || {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            let y = b.var("y");
            b.range(x, [auto]);
            b.range(y, [s.class_id("Discount").unwrap()]);
            b.member(x, y, s.attr_id("VehRented").unwrap());
            b.build()
        };
        // restricted ⊆ simple; duplicates of simple collapse to one.
        let u = UnionQuery::new(vec![mk_restricted(), mk_simple(), mk_simple()]);
        let nr = nonredundant_union(&s, &u).unwrap();
        assert_eq!(nr.len(), 1);
        assert_eq!(nr.queries()[0].var_count(), 1);
    }

    #[test]
    fn nonredundant_union_iso_fast_path_is_invisible() {
        // A union with a renamed duplicate (isomorphic pair), a strictly
        // contained subquery, and an incomparable one: with and without the
        // isomorphism fast path the retained set is identical.
        let s = samples::vehicle_rental();
        let auto = s.class_id("Auto").unwrap();
        let mk_simple = |free: &str| {
            let mut b = QueryBuilder::new(free);
            let x = b.free();
            b.range(x, [auto]);
            b.build()
        };
        let mk_restricted = || {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            let y = b.var("y");
            b.range(x, [auto]);
            b.range(y, [s.class_id("Discount").unwrap()]);
            b.member(x, y, s.attr_id("VehRented").unwrap());
            b.build()
        };
        let mk_truck = || {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            b.range(x, [s.class_id("Truck").unwrap()]);
            b.build()
        };
        let u = UnionQuery::new(vec![
            mk_restricted(),
            mk_simple("x"),
            mk_simple("renamed"),
            mk_truck(),
        ]);
        let handles = PreparedSchema::new(&s).prepare_union(&u);
        let on = Engine::serial();
        let off = Engine::new(EngineConfig::serial().without_iso_fast_path());
        let nr_on = on.nonredundant_union(&handles).unwrap();
        let nr_off = off.nonredundant_union(&handles).unwrap();
        assert_eq!(nr_on, nr_off);
        assert_eq!(nr_on.len(), 2); // simple("x") + truck survive
    }

    #[test]
    fn nonredundant_union_drops_unsatisfiable_subqueries() {
        let s = samples::unrelated_subtypes();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [t1]).range(y, [t2]).eq_vars(x, y);
        let unsat = b.build();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [t1]);
        let sat = b.build();
        let nr = nonredundant_union(&s, &UnionQuery::new(vec![unsat, sat])).unwrap();
        assert_eq!(nr.len(), 1);
    }

    #[test]
    fn search_space_cost_counts_terminal_occurrences() {
        let s = samples::vehicle_rental();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        b.range(y, [s.class_id("Discount").unwrap()]);
        b.member(x, y, s.attr_id("VehRented").unwrap());
        let q = b.build();
        let cost = search_space_cost(&s, &q);
        assert_eq!(cost.get(&s.class_id("Auto").unwrap()), Some(&1));
        assert_eq!(cost.get(&s.class_id("Truck").unwrap()), Some(&1));
        assert_eq!(cost.get(&s.class_id("Discount").unwrap()), Some(&1));
        assert_eq!(cost.get(&s.class_id("Regular").unwrap()), None);
    }

    #[test]
    fn minimization_reduces_search_space_cost() {
        let s = samples::vehicle_rental();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        b.range(y, [s.class_id("Discount").unwrap()]);
        b.member(x, y, s.attr_id("VehRented").unwrap());
        let q = b.build();
        let before = search_space_cost(&s, &q);
        let minimized = minimize_positive(&s, &q).unwrap();
        let after = union_cost(&s, &minimized);
        assert!(cost_leq(&after, &before));
        assert!(!cost_leq(&before, &after));
    }

    #[test]
    fn minimized_subqueries_are_minimal_and_nonredundant() {
        let s = samples::n1_partition();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("N1").unwrap()]);
        b.range(y, [s.class_id("G").unwrap()]);
        b.member(y, x, s.attr_id("A").unwrap());
        let q = b.build();
        let result = minimize_positive(&s, &q).unwrap();
        for sub in &result {
            assert!(is_minimal_terminal_positive(&s, sub).unwrap());
        }
        let nr = nonredundant_union(&s, &result).unwrap();
        assert_eq!(nr.len(), result.len());
    }

    #[test]
    fn unsatisfiable_query_minimizes_to_empty_union() {
        let s = samples::unrelated_subtypes();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("T1").unwrap()]);
        b.range(y, [s.class_id("T2").unwrap()]);
        b.eq_vars(x, y);
        let result = minimize_positive(&s, &b.build()).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn non_positive_input_rejected() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [c]).range(y, [c]).neq_vars(x, y);
        assert!(matches!(
            minimize_positive(&s, &b.build()),
            Err(CoreError::NotPositive)
        ));
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;
    use oocq_query::QueryBuilder;
    use oocq_schema::samples;

    #[test]
    fn report_traces_example_41() {
        let s = samples::n1_partition();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("s");
        b.range(x, [s.class_id("N1").unwrap()]);
        b.range(y, [s.class_id("G").unwrap()]);
        b.range(z, [s.class_id("H").unwrap()]);
        b.eq_attr(y, x, s.attr_id("B").unwrap());
        b.member(y, x, s.attr_id("A").unwrap());
        b.member(z, x, s.attr_id("A").unwrap());
        let q = b.build();
        let report = minimize_positive_report(&s, &q).unwrap();
        assert_eq!(report.expanded, 6);
        assert_eq!(report.unsatisfiable.len(), 4);
        assert_eq!(report.redundant.len(), 0);
        assert_eq!(report.folds.len(), 1);
        assert_eq!(report.result.len(), 2);
        // The report's result agrees with the plain pipeline.
        let plain = minimize_positive(&s, &q).unwrap();
        assert_eq!(report.result, plain);
        let text = report.render(&s);
        assert!(text.contains("expanded: 6 branch(es), 4 unsatisfiable, 0 redundant"));
        assert!(text.contains("folded 3 -> 2 vars"));
    }

    #[test]
    fn report_counts_redundant_subqueries() {
        // Two interchangeable members in a set: the expansion over a
        // two-leaf schema yields branches where one subsumes another? Use
        // star over the vehicle schema: Vehicle expands to 3 branches, two
        // unsat, none redundant; instead craft redundancy via a disjunctive
        // range producing a duplicate branch.
        let s = samples::vehicle_rental();
        let auto = s.class_id("Auto").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        // x in Auto | Auto — the expansion dedups choices, so instead use
        // two variables equated across the same class, which fold.
        let y = b.var("y");
        b.range(x, [auto]).range(y, [auto]).eq_vars(x, y);
        let q = b.build();
        let report = minimize_positive_report(&s, &q).unwrap();
        assert_eq!(report.expanded, 1);
        assert_eq!(report.folds.len(), 1);
        assert_eq!(report.result.queries()[0].var_count(), 1);
    }
}
