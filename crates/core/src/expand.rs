//! Terminal expansion (Proposition 2.1, §2.4).
//!
//! Under the Terminal Class Partitioning Assumption, a variable ranging over
//! `C₁ ∨ … ∨ Cₙ` ranges over the disjoint union of the terminal descendants
//! of the `Cᵢ`. A conjunctive query is therefore equivalent to the union of
//! terminal conjunctive queries obtained by choosing, for every variable,
//! one terminal descendant of its range disjunction.

use crate::branch::EngineConfig;
use crate::engine::{one_shot, Engine, PreparedSchema};
use crate::error::CoreError;
use crate::satisfiability::{self, Satisfiability};
use oocq_query::{Atom, Query, QueryAnalysis, QueryBuilder, UnionQuery};
use oocq_schema::{ClassId, Schema};

/// The terminal choices for each variable: the deduplicated union of the
/// terminal descendants of its range classes, in schema order. A prepared
/// schema serves the per-class closures from its eager tables instead of
/// re-sorting them per call; the lists are identical either way.
fn choices(
    schema: &Schema,
    q: &Query,
    prepared: Option<&PreparedSchema>,
) -> Result<Vec<Vec<ClassId>>, CoreError> {
    q.vars()
        .map(|v| {
            let Some(cs) = q.range_of(v) else {
                return Err(CoreError::WellFormed(
                    oocq_query::WellFormedError::RangeCount {
                        var: q.var_name(v).to_owned(),
                        count: 0,
                    },
                ));
            };
            if let Some(ps) = prepared {
                return Ok(ps.terminal_choices(cs));
            }
            let mut out: Vec<ClassId> = cs
                .iter()
                .flat_map(|&c| schema.terminal_descendants(c))
                .copied()
                .collect();
            out.sort();
            out.dedup();
            Ok(out)
        })
        .collect()
}

/// Walk the choice odometer in lexicographic order, handing each complete
/// per-variable choice vector to `f` until `f` returns `false` (the walk is
/// worst-case exponential, so budgeted callers need a way out). Assumes no
/// choice list is empty.
fn for_each_choice(choice_lists: &[Vec<ClassId>], mut f: impl FnMut(&[ClassId]) -> bool) {
    let n = choice_lists.len();
    let mut cursor = vec![0usize; n];
    let mut chosen: Vec<ClassId> = cursor
        .iter()
        .enumerate()
        .map(|(v, &i)| choice_lists[v][i])
        .collect();
    loop {
        if !f(&chosen) {
            return;
        }
        // Odometer increment.
        let mut k = n;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            cursor[k] += 1;
            if cursor[k] < choice_lists[k].len() {
                chosen[k] = choice_lists[k][cursor[k]];
                break;
            }
            cursor[k] = 0;
            chosen[k] = choice_lists[k][0];
        }
    }
}

/// How many terminal subqueries [`expand`] will produce (the product of the
/// per-variable choice counts). Saturates at `usize::MAX`.
pub fn expansion_size(schema: &Schema, q: &Query) -> Result<usize, CoreError> {
    Ok(choices(schema, q, None)?
        .iter()
        .fold(1usize, |acc, c| acc.saturating_mul(c.len())))
}

/// Build one terminal subquery: the original with every range atom replaced
/// by the chosen single terminal class.
fn instantiate(q: &Query, chosen: &[ClassId]) -> Query {
    let mut b = QueryBuilder::new(q.var_name(q.free_var()));
    let mut ids = Vec::with_capacity(q.var_count());
    for v in q.vars() {
        if v == q.free_var() {
            ids.push(b.free());
        } else {
            ids.push(b.var(q.var_name(v)));
        }
    }
    let mut seen_range = vec![false; q.var_count()];
    for atom in q.atoms() {
        match atom {
            Atom::Range(v, _) => {
                // Well-formed queries have one range atom per variable; be
                // robust to duplicates by emitting the choice only once.
                if !seen_range[v.index()] {
                    seen_range[v.index()] = true;
                    b.range(ids[v.index()], [chosen[v.index()]]);
                }
            }
            other => {
                b.atom(other.map_vars(|v| ids[v.index()]));
            }
        }
    }
    b.build()
}

/// Proposition 2.1: convert a conjunctive query into an equivalent union of
/// terminal conjunctive queries.
///
/// Subqueries are produced in lexicographic order of the per-variable
/// terminal choices. No satisfiability filtering is applied — see
/// [`expand_satisfiable`].
pub fn expand(schema: &Schema, q: &Query) -> Result<UnionQuery, CoreError> {
    let choice_lists = choices(schema, q, None)?;
    let mut out = UnionQuery::empty();
    if choice_lists.iter().any(Vec::is_empty) {
        // Some variable ranges over a class with no terminal descendant
        // (impossible in a consistent schema, but be defensive): the query
        // is unsatisfiable and expands to the empty union.
        return Ok(out);
    }
    for_each_choice(&choice_lists, |chosen| {
        out.push(instantiate(q, chosen));
        true
    });
    Ok(out)
}

/// Expand and keep only the satisfiable subqueries, with their non-range
/// atoms stripped (§2.5). This is the first stage of the §4 minimization
/// pipeline. The surviving subqueries keep their expansion order.
pub fn expand_satisfiable(schema: &Schema, q: &Query) -> Result<UnionQuery, CoreError> {
    let [p] = one_shot(schema, [q]);
    Engine::serial().expand_satisfiable(&p)
}

/// The satisfiable expansion, charging `cfg`'s budget in the odometer and
/// the per-subquery satisfiability checks. Shared by the prepared-query
/// expansion memo and the theory path's compiled left queries.
///
/// Two per-subquery rebuilds of the naive pipeline are hoisted out:
///
/// * **Classes.** An instantiated subquery's range atoms are exactly the
///   chosen terminal classes, so the odometer's choice vector *is*
///   `var_classes(schema, sub)` — no re-resolution (a `debug_assert`
///   rechecks this in test builds).
/// * **Analysis.** Algorithm *EqualityGraph* classifies terms without ever
///   consulting a range atom's class list — `x ∈ C` only marks `x` an
///   object term, whatever `C` is — and instantiation changes nothing but
///   those class lists. The parent query's analysis therefore applies to
///   every subquery verbatim, and `parent_analysis` is computed once by the
///   caller (or served from the prepared query's memo).
pub(crate) fn expand_satisfiable_inner(
    schema: &Schema,
    q: &Query,
    cfg: &EngineConfig,
    prepared: Option<&PreparedSchema>,
    parent_analysis: &QueryAnalysis,
) -> Result<UnionQuery, CoreError> {
    let choice_lists = choices(schema, q, prepared)?;
    if choice_lists.iter().any(Vec::is_empty) {
        return Ok(UnionQuery::empty());
    }
    let mut subs: Vec<(Vec<ClassId>, Query)> = Vec::new();
    let mut charge_err: Option<CoreError> = None;
    for_each_choice(&choice_lists, |chosen| {
        // Charge before materializing: the odometer is the exponential part
        // of Proposition 2.1, so the budget must be able to stop it here.
        if let Err(e) = cfg.budget.charge(1) {
            charge_err = Some(e);
            return false;
        }
        subs.push((chosen.to_vec(), instantiate(q, chosen)));
        true
    });
    if let Some(e) = charge_err {
        return Err(e);
    }
    let mut out = UnionQuery::empty();
    for (chosen, sub) in &subs {
        cfg.budget.charge(1)?;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            satisfiability::var_classes(schema, sub).ok().as_deref(),
            Some(chosen.as_slice()),
            "odometer choices must equal the subquery's resolved classes"
        );
        if let Satisfiability::Satisfiable =
            satisfiability::check(schema, sub, chosen, parent_analysis)
        {
            out.push(satisfiability::strip_non_range(sub));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocq_query::QueryBuilder;
    use oocq_schema::samples;

    fn vehicle_query(s: &Schema) -> Query {
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        b.range(y, [s.class_id("Discount").unwrap()]);
        b.member(x, y, s.attr_id("VehRented").unwrap());
        b.build()
    }

    #[test]
    fn example_21_expansion() {
        // Vehicle has 3 terminal descendants, Discount 1: three subqueries.
        let s = samples::vehicle_rental();
        let q = vehicle_query(&s);
        assert_eq!(expansion_size(&s, &q).unwrap(), 3);
        let u = expand(&s, &q).unwrap();
        assert_eq!(u.len(), 3);
        assert!(u.is_terminal(&s));
        let texts: Vec<String> = u.iter().map(|q| q.display(&s).to_string()).collect();
        assert_eq!(
            texts[0],
            "{ x | exists y: x in Auto & y in Discount & x in y.VehRented }"
        );
        assert!(texts[1].contains("x in Trailer"));
        assert!(texts[2].contains("x in Truck"));
    }

    #[test]
    fn example_21_satisfiable_survivors() {
        // Discount.VehRented : {Auto}: only the Auto subquery survives.
        let s = samples::vehicle_rental();
        let u = expand_satisfiable(&s, &vehicle_query(&s)).unwrap();
        assert_eq!(u.len(), 1);
        assert!(u.queries()[0].display(&s).to_string().contains("x in Auto"));
    }

    #[test]
    fn example_41_expansion_counts() {
        // x over N₁ (3 terminals), y over G (2), s over H (1): 6 subqueries,
        // 2 satisfiable (x ∈ T₂).
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
        assert_eq!(expansion_size(&s, &q).unwrap(), 6);
        let sat = expand_satisfiable(&s, &q).unwrap();
        assert_eq!(sat.len(), 2);
        for sub in &sat {
            assert_eq!(
                sub.terminal_class_of(sub.free_var()),
                Some(s.class_id("T2").unwrap())
            );
        }
    }

    #[test]
    fn terminal_query_expands_to_itself() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [c]);
        let q = b.build();
        let u = expand(&s, &q).unwrap();
        assert_eq!(u.len(), 1);
        assert!(u.queries()[0].same_modulo_atom_order(&q));
    }

    #[test]
    fn range_disjunction_unions_choices() {
        let s = samples::vehicle_rental();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        // Auto | Client: 1 + 2 terminal descendants.
        b.range(
            x,
            [s.class_id("Auto").unwrap(), s.class_id("Client").unwrap()],
        );
        let q = b.build();
        assert_eq!(expansion_size(&s, &q).unwrap(), 3);
    }

    #[test]
    fn missing_range_is_an_error() {
        let s = samples::single_class();
        let b = QueryBuilder::new("x");
        assert!(matches!(
            expand(&s, &b.build()),
            Err(CoreError::WellFormed(_))
        ));
    }

    #[test]
    fn expansion_is_exponential_in_vars() {
        let s = samples::vehicle_rental();
        let vehicle = s.class_id("Vehicle").unwrap();
        let mut b = QueryBuilder::new("x0");
        let x0 = b.free();
        b.range(x0, [vehicle]);
        for i in 1..5 {
            let v = b.var(&format!("x{i}"));
            b.range(v, [vehicle]);
        }
        // 3^5 combinations.
        assert_eq!(expansion_size(&s, &b.build()).unwrap(), 243);
    }
}
