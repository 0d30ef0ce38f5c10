//! **Extension** — minimization of *general* conjunctive queries.
//!
//! The paper proves exact minimization only for positive conjunctive
//! queries and names the general case as future work (§5). This module
//! implements a **sound** minimizer for general (negative-atom) terminal
//! conjunctive queries using only machinery the paper establishes:
//!
//! * expansion and satisfiability filtering work unchanged (§2.4, §2.5);
//! * redundant subqueries are dropped using the full Theorem 3.1
//!   containment test — exact for terminal queries of any shape;
//! * variable folding is *candidate-generated* by the non-contradictory
//!   self-mapping search (as in Theorem 4.3) but, because Theorem 4.3 is
//!   only proven for positive queries, every fold is **verified** by a
//!   two-way Theorem 3.1 equivalence check before being accepted.
//!
//! The result is always equivalent to the input and never larger; unlike
//! the positive case it carries no optimality guarantee (the §5 problem
//! stays open — an unverified fold can be incorrect for general queries,
//! and a correct one can be missed).

use crate::derive::{find_mapping, MappingGoal, TargetData};
use crate::engine::{one_shot, Engine, PreparedQuery};
use crate::error::CoreError;
use crate::satisfiability::{is_satisfiable, strip_non_range, var_classes};
use oocq_query::{normalize, Query, UnionQuery};
use oocq_schema::Schema;

/// Minimize the variables of a satisfiable *general* terminal conjunctive
/// query: repeatedly fold through a non-contradictory free-preserving
/// self-mapping whose result is verified equivalent (Theorem 3.1 both
/// ways). Sound for any terminal conjunctive query; exact (per Cor. 4.4)
/// when the query happens to be positive.
pub fn minimize_terminal_general(schema: &Schema, q: &Query) -> Result<Query, CoreError> {
    let [p] = one_shot(schema, [q]);
    Engine::serial().minimize_terminal_general(&p)
}

/// [`minimize_terminal_general`] over a handle, verifying every fold
/// through `engine` ([`Engine::minimize_terminal_general`]).
pub(crate) fn fold_verified(engine: &Engine, p: &PreparedQuery) -> Result<Query, CoreError> {
    let schema = p.schema().schema();
    let handle = |q: &Query| PreparedQuery::new(p.schema(), q.clone());
    let mut cur = strip_non_range(p.query());
    if !is_satisfiable(schema, &cur)? {
        return Ok(cur);
    }
    'outer: loop {
        let classes = var_classes(schema, &cur)?;
        let free = cur.free_var();
        let pcur = handle(&cur);
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
                let folded = cur.apply_mapping(&map);
                // Theorem 4.3 covers only positive queries; verify the fold.
                if cur.is_positive() || engine.equivalent(&pcur, &handle(&folded))? {
                    cur = folded;
                    continue 'outer;
                }
            }
        }
        break;
    }
    Ok(cur)
}

/// Sound minimization of a general conjunctive query into a union of
/// terminal conjunctive queries: expand (Prop. 2.1), drop unsatisfiable
/// branches (Thm. 2.2), drop pairwise-redundant branches (Thm. 3.1), fold
/// variables with verification.
///
/// Always equivalent to the input; optimality is **not** guaranteed for
/// inputs with negative atoms (see the module docs).
pub fn minimize_general(schema: &Schema, q: &Query) -> Result<UnionQuery, CoreError> {
    let [p] = one_shot(schema, [q]);
    Engine::serial().minimize_general(&p)
}

/// [`minimize_general`] over a handle, deciding every containment and
/// equivalence through `engine` ([`Engine::minimize_general`]).
pub(crate) fn minimize_union(engine: &Engine, p: &PreparedQuery) -> Result<UnionQuery, CoreError> {
    let schema = p.schema().schema();
    let normalized = normalize(p.query(), schema)?;
    let expanded = crate::expand::expand(schema, &normalized)?;
    let mut survivors: Vec<PreparedQuery> = Vec::new();
    for sub in &expanded {
        if is_satisfiable(schema, sub)? {
            survivors.push(PreparedQuery::new(p.schema(), strip_non_range(sub)));
        }
    }
    // Pairwise redundancy removal: dropping Qᵢ with Qᵢ ⊆ Qⱼ (j retained) is
    // sound for unions of any shape (the union's answer is unchanged).
    let n = survivors.len();
    let mut dropped = vec![false; n];
    for i in 0..n {
        if dropped[i] {
            continue;
        }
        for j in 0..n {
            if i == j || dropped[j] {
                continue;
            }
            if engine.contains(&survivors[i], &survivors[j])? {
                if engine.contains(&survivors[j], &survivors[i])? {
                    if j < i {
                        dropped[i] = true;
                        break;
                    }
                } else {
                    dropped[i] = true;
                    break;
                }
            }
        }
    }
    let mut out = UnionQuery::empty();
    for (i, sub) in survivors.iter().enumerate() {
        if !dropped[i] {
            out.push(fold_verified(engine, sub)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent_terminal;
    use oocq_query::QueryBuilder;
    use oocq_schema::samples;

    #[test]
    fn example_32_chain_folds_to_two_variables() {
        // x≠y & y≠z ≡ x≠y (Example 3.2): the general minimizer finds and
        // verifies the fold z ↦ x.
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("z");
        b.range(x, [c]).range(y, [c]).range(z, [c]);
        b.neq_vars(x, y).neq_vars(y, z);
        let q = b.build();
        let m = minimize_terminal_general(&s, &q).unwrap();
        assert_eq!(m.var_count(), 2);
        assert!(equivalent_terminal(&s, &q, &m).unwrap());
    }

    #[test]
    fn triangle_does_not_fold() {
        // x≠y & y≠z & x≠z needs all three variables.
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("z");
        b.range(x, [c]).range(y, [c]).range(z, [c]);
        b.neq_vars(x, y).neq_vars(y, z).neq_vars(x, z);
        let q = b.build();
        let m = minimize_terminal_general(&s, &q).unwrap();
        assert_eq!(m.var_count(), 3);
    }

    #[test]
    fn agrees_with_positive_minimizer_on_positive_inputs() {
        let s = oocq_gen_free::workload();
        let q = oocq_gen_free::star(&s, 4);
        let general = minimize_terminal_general(&s, &q).unwrap();
        let positive = crate::minimize::minimize_terminal_positive(&s, &q).unwrap();
        assert_eq!(general.var_count(), positive.var_count());
        assert!(equivalent_terminal(&s, &general, &positive).unwrap());
    }

    /// A tiny local stand-in for oocq-gen (core cannot depend on it without
    /// a cycle): one Node class with an `items` set, plus a star query.
    mod oocq_gen_free {
        use oocq_query::{Query, QueryBuilder};
        use oocq_schema::{AttrType, Schema, SchemaBuilder};

        pub fn workload() -> Schema {
            let mut b = SchemaBuilder::new();
            let node = b.class("Node").unwrap();
            b.attribute(node, "items", AttrType::SetOf(node)).unwrap();
            let leaf = b.class("Leaf").unwrap();
            b.subclass(leaf, node).unwrap();
            b.finish().unwrap()
        }

        pub fn star(s: &Schema, n: usize) -> Query {
            let leaf = s.class_id("Leaf").unwrap();
            let items = s.attr_id("items").unwrap();
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            b.range(x, [leaf]);
            for i in 0..n {
                let y = b.var(&format!("y{i}"));
                b.range(y, [leaf]);
                b.member(y, x, items);
            }
            b.build()
        }
    }

    #[test]
    fn general_union_pipeline_drops_unsat_and_redundant() {
        let s = samples::vehicle_rental();
        // Non-terminal query with a negative atom: all vehicles NOT rented
        // by a given discount client.
        let veh = s.attr_id("VehRented").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        b.range(y, [s.class_id("Discount").unwrap()]);
        b.non_member(x, y, veh);
        let q = b.build();
        let m = minimize_general(&s, &q).unwrap();
        // All three vehicle branches stay (non-membership over {Auto} sets
        // is satisfiable for every vehicle kind) and none is redundant:
        // distinct terminal classes.
        assert_eq!(m.len(), 3);
        for sub in &m {
            assert_eq!(sub.var_count(), 2);
        }
    }

    #[test]
    fn unsat_general_query_minimizes_to_empty() {
        let s = samples::unrelated_subtypes();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("T1").unwrap()]);
        b.range(y, [s.class_id("T2").unwrap()]);
        b.eq_vars(x, y);
        b.neq_vars(x, y);
        let m = minimize_general(&s, &b.build()).unwrap();
        assert!(m.is_empty());
    }
}
