//! Parser for the calculus-like query DSL (§2.2's concrete syntax).
//!
//! ```text
//! { x | exists y, s: x in N1 & y in G & s in H
//!       & y = x.B & y in x.A & s in x.A }
//! ```
//!
//! * `v in C1 | C2` / `v not in C1 | C2` — range / non-range atoms;
//! * `t = u` / `t != u` where each side is `v` or `v.Attr` — equality /
//!   inequality atoms;
//! * `v in w.Attr` / `v not in w.Attr` — membership / non-membership atoms;
//! * `true` — the empty matrix;
//! * **path expressions**: `x.A.B`, `x.A in C`, and `x.A in y.B` are
//!   accepted and desugared into fresh intermediate variables plus
//!   equalities, exactly as §2.2's remark prescribes.
//!
//! Unions are written `{ … } union { … }`. Variables must be declared (the
//! answer variable before `|`, bound variables in the `exists` list); class
//! and attribute names are resolved against the schema.

use crate::error::ParseError;
use crate::lexer::{Cursor, Spanned, Tok};
use oocq_query::{Query, QueryBuilder, Term, UnionQuery, VarId};
use oocq_schema::{AttrId, ClassId, Schema};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write;

/// One query's declared variables, keyed by names borrowed from the input,
/// and the builder the atoms go into.
struct QueryScope<'a, 's> {
    schema: &'s Schema,
    builder: QueryBuilder,
    vars: HashMap<&'a str, VarId>,
    fresh: usize,
}

impl QueryScope<'_, '_> {
    fn var(&self, name: &str, at: Spanned<'_>) -> Result<VarId, ParseError> {
        self.vars
            .get(name)
            .copied()
            .ok_or_else(|| at.error(format!("undeclared variable `{name}`")))
    }

    /// One path step for desugaring (§2.2 remarks: `x.A₁…Aₙ` is expressible
    /// via intermediate variables): a fresh bound variable `z` with
    /// `z = base.attr`. Fresh variables are named `_q0`, `_q1`, … skipping
    /// any name a declared variable already uses, and stay out of the
    /// scope, so the query text can never refer to one by accident.
    fn step(&mut self, base: VarId, attr: AttrId) -> VarId {
        let mut name = String::new();
        loop {
            name.clear();
            write!(name, "_q{}", self.fresh).expect("writing to a String");
            self.fresh += 1;
            if !self.vars.contains_key(name.as_str()) {
                break;
            }
        }
        let z = self.builder.var(&name);
        self.builder.eq(Term::Var(z), Term::Attr(base, attr));
        z
    }
}

/// Parse a single conjunctive query against a schema.
pub fn parse_query(schema: &Schema, input: &str) -> Result<Query, ParseError> {
    parse_query_at(schema, input, (1, 1))
}

/// [`parse_query`] of a slice of a larger text that starts at
/// `(line, col)` of it, with errors positioned in the larger text.
pub(crate) fn parse_query_at(
    schema: &Schema,
    input: &str,
    start: (usize, usize),
) -> Result<Query, ParseError> {
    Cursor::parse_at(input, start, |cur| {
        let q = one_query(cur, schema)?;
        cur.expect(Tok::Eof)?;
        Ok(q)
    })
}

/// Parse a union `{ … } union { … } …` (or a single query) against a schema.
pub fn parse_union(schema: &Schema, input: &str) -> Result<UnionQuery, ParseError> {
    Cursor::parse(input, |cur| {
        let mut u = UnionQuery::single(one_query(cur, schema)?);
        while cur.eat_kw("union") {
            u.push(one_query(cur, schema)?);
        }
        cur.expect(Tok::Eof)?;
        Ok(u)
    })
}

fn one_query<'a>(cur: &mut Cursor<'a>, schema: &Schema) -> Result<Query, ParseError> {
    cur.expect(Tok::LBrace)?;
    let (free, _) = cur.ident()?;
    cur.expect(Tok::Pipe)?;
    let builder = QueryBuilder::new(free);
    let mut scope = QueryScope {
        schema,
        vars: HashMap::from([(free, builder.free())]),
        builder,
        fresh: 0,
    };
    if cur.eat_kw("exists") {
        loop {
            let (name, at) = cur.ident()?;
            match scope.vars.entry(name) {
                Entry::Occupied(_) => {
                    return Err(at.error(format!("variable `{name}` declared twice")))
                }
                Entry::Vacant(slot) => {
                    slot.insert(scope.builder.var(name));
                }
            }
            if !cur.eat(Tok::Comma) {
                break;
            }
        }
        cur.expect(Tok::Colon)?;
    }
    if cur.eat_kw("true") {
        cur.expect(Tok::RBrace)?;
        return Ok(scope.builder.build());
    }
    loop {
        atom(cur, &mut scope)?;
        if !cur.eat(Tok::Amp) {
            break;
        }
    }
    cur.expect(Tok::RBrace)?;
    Ok(scope.builder.build())
}

/// A parsed side `var(.Attr)*`. Every attribute but the last is desugared
/// as soon as the next one arrives, so a chain is a base variable and at
/// most one trailing attribute.
struct Chain {
    base: VarId,
    last: Option<AttrId>,
}

impl Chain {
    /// The chain as an (in)equality operand: `v` or `v.Attr`.
    fn term(self) -> Term {
        match self.last {
            None => Term::Var(self.base),
            Some(a) => Term::Attr(self.base, a),
        }
    }

    /// The chain desugared down to a single variable.
    fn var(self, scope: &mut QueryScope<'_, '_>) -> VarId {
        match self.last {
            None => self.base,
            Some(a) => scope.step(self.base, a),
        }
    }
}

/// Parse `var(.Attr)*`, resolving attribute names against the schema.
fn chain(cur: &mut Cursor<'_>, scope: &mut QueryScope<'_, '_>) -> Result<Chain, ParseError> {
    let (name, at) = cur.ident()?;
    let mut c = Chain {
        base: scope.var(name, at)?,
        last: None,
    };
    while cur.eat(Tok::Dot) {
        let (attr, at) = cur.ident()?;
        let a = scope
            .schema
            .attr_id(attr)
            .ok_or_else(|| at.error(format!("unknown attribute `{attr}`")))?;
        if let Some(prev) = c.last.replace(a) {
            c.base = scope.step(c.base, prev);
        }
    }
    Ok(c)
}

/// Parse `C1 | C2 | …` straight into the class vector the atom keeps. An
/// unknown name is reported only once the whole list has parsed, so a
/// syntax error later in the list wins.
fn class_list(cur: &mut Cursor<'_>, schema: &Schema) -> Result<Vec<ClassId>, ParseError> {
    let mut classes = Vec::new();
    let mut unknown = None;
    loop {
        let (name, at) = cur.ident()?;
        match schema.class_id(name) {
            Some(c) => classes.push(c),
            None => {
                unknown.get_or_insert((name, at));
            }
        }
        if !cur.eat(Tok::Pipe) {
            break;
        }
    }
    match unknown {
        Some((name, at)) => Err(at.error(format!("unknown class `{name}`"))),
        None => Ok(classes),
    }
}

fn atom(cur: &mut Cursor<'_>, scope: &mut QueryScope<'_, '_>) -> Result<(), ParseError> {
    let lhs = chain(cur, scope)?;
    let t = cur.next();
    match t.tok {
        Tok::Eq | Tok::Neq => {
            let lhs = lhs.term();
            let rhs = chain(cur, scope)?.term();
            if t.tok == Tok::Eq {
                scope.builder.eq(lhs, rhs);
            } else {
                scope.builder.neq(lhs, rhs);
            }
            Ok(())
        }
        Tok::Ident(kw @ ("in" | "not")) => {
            let negated = kw == "not";
            if negated {
                let (inkw, at) = cur.ident()?;
                if inkw != "in" {
                    return Err(at.error("expected `in` after `not`"));
                }
            }
            // The paper's remark in §2.2: atoms `x.A θ C` and `x.A θ y.B`
            // are expressible indirectly — desugar the whole left chain to
            // a fresh variable.
            let v = lhs.var(scope);
            // Disambiguate `v in Class | …` from `v in w.Attr`: an
            // identifier followed by `.` is a membership right side.
            if matches!(cur.peek().tok, Tok::Ident(_)) && cur.peek2() == Tok::Dot {
                let rhs = chain(cur, scope)?;
                let Some(a) = rhs.last else {
                    unreachable!("membership right side always ends in an attribute");
                };
                if negated {
                    scope.builder.non_member(v, rhs.base, a);
                } else {
                    scope.builder.member(v, rhs.base, a);
                }
            } else {
                let classes = class_list(cur, scope.schema)?;
                if negated {
                    scope.builder.non_range(v, classes);
                } else {
                    scope.builder.range(v, classes);
                }
            }
            Ok(())
        }
        other => Err(t.error(format!(
            "expected `=`, `!=`, `in`, or `not in`, found {}",
            other.describe()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocq_schema::samples;

    #[test]
    fn parses_the_example_12_query() {
        let s = samples::n1_partition();
        let q = parse_query(
            &s,
            "{ x | exists y, s: x in N1 & y in G & s in H & y = x.B & y in x.A & s in x.A }",
        )
        .unwrap();
        assert_eq!(q.var_count(), 3);
        assert_eq!(q.atoms().len(), 6);
        assert!(q.is_positive());
    }

    #[test]
    fn display_parse_round_trip() {
        let s = samples::n1_partition();
        let text = "{ x | exists y, s: x in N1 & y in G & s in H & y = x.B & y in x.A & s in x.A }";
        let q = parse_query(&s, text).unwrap();
        assert_eq!(q.display(&s).to_string(), text);
        let again = parse_query(&s, &q.display(&s).to_string()).unwrap();
        assert_eq!(q, again);
    }

    #[test]
    fn parses_negative_atoms_and_disjunctions() {
        let s = samples::vehicle_rental();
        let q = parse_query(
            &s,
            "{ x | exists y: x in Auto | Truck & y in Client & x not in y.VehRented & x != y }",
        )
        .unwrap();
        assert!(!q.is_positive());
        assert_eq!(q.atoms().len(), 4);
        assert_eq!(
            q.display(&s).to_string(),
            "{ x | exists y: x in Auto | Truck & y in Client & x not in y.VehRented & x != y }"
        );
    }

    #[test]
    fn parses_true_matrix() {
        let s = samples::single_class();
        let q = parse_query(&s, "{ x | true }").unwrap();
        assert!(q.atoms().is_empty());
    }

    #[test]
    fn parses_unions() {
        let s = samples::vehicle_rental();
        let u = parse_union(&s, "{ x | x in Auto } union { x | x in Truck }").unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(
            u.display(&s).to_string(),
            "{ x | x in Auto } union { x | x in Truck }"
        );
    }

    #[test]
    fn undeclared_variable_is_an_error() {
        let s = samples::single_class();
        let err = parse_query(&s, "{ x | x = y }").unwrap_err();
        assert!(err.message.contains("undeclared variable `y`"));
    }

    #[test]
    fn duplicate_bound_variable_is_an_error() {
        let s = samples::single_class();
        let err = parse_query(&s, "{ x | exists y, y: x in C }").unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn unknown_class_and_attribute_are_errors() {
        let s = samples::single_class();
        assert!(parse_query(&s, "{ x | x in Nope }")
            .unwrap_err()
            .message
            .contains("unknown class"));
        assert!(parse_query(&s, "{ x | exists y: x in y.Nope }")
            .unwrap_err()
            .message
            .contains("unknown attribute"));
    }

    #[test]
    fn attr_on_lhs_of_membership_desugars() {
        // `x.A in y.B` is the indirect form of §2.2's remark: a fresh
        // variable z with z = x.A and z in y.B.
        let s = samples::example_31();
        let q = parse_query(&s, "{ x | exists y: x.A in y.B & x in C & y in C }").unwrap();
        assert_eq!(q.var_count(), 3);
        let text = q.display(&s).to_string();
        assert!(text.contains("_q0 = x.A"), "got {text}");
        assert!(text.contains("_q0 in y.B"), "got {text}");
    }

    #[test]
    fn path_expressions_desugar_stepwise() {
        // x.A.A = y over a self-referencing schema: two fresh variables.
        let mut sb = oocq_schema::SchemaBuilder::new();
        let c = sb.class("C").unwrap();
        sb.attribute(c, "A", oocq_schema::AttrType::Object(c))
            .unwrap();
        sb.attribute(c, "S", oocq_schema::AttrType::SetOf(c))
            .unwrap();
        let s = sb.finish().unwrap();
        let q = parse_query(&s, "{ x | exists y: x in C & y in C & x.A.A = y }").unwrap();
        assert_eq!(q.var_count(), 3); // x, y, _q0 (only one step desugars)
        let text = q.display(&s).to_string();
        assert!(text.contains("_q0 = x.A"), "got {text}");
        assert!(text.contains("_q0.A = y"), "got {text}");

        // Membership through a path: y in x.A.S.
        let q = parse_query(&s, "{ x | exists y: x in C & y in C & y in x.A.S }").unwrap();
        let text = q.display(&s).to_string();
        assert!(text.contains("_q0 = x.A"), "got {text}");
        assert!(text.contains("y in _q0.S"), "got {text}");
    }

    /// `class C { A: C; }`: paths of any length stay well typed.
    fn self_referencing() -> Schema {
        let mut sb = oocq_schema::SchemaBuilder::new();
        let c = sb.class("C").unwrap();
        sb.attribute(c, "A", oocq_schema::AttrType::Object(c))
            .unwrap();
        sb.finish().unwrap()
    }

    #[test]
    fn fresh_path_names_skip_declared_variables() {
        use oocq_query::Atom;
        let s = self_referencing();
        let (c, a) = (s.class_id("C").unwrap(), s.attr_id("A").unwrap());
        let v = VarId::from_index;
        // The declared `_q0` keeps its name and its atoms; the path's
        // intermediate becomes `_q1`.
        let cases = [
            (
                "{ x | exists _q0: x in C & _q0 in C & x.A.A = x & _q0 = x }",
                Atom::Eq(Term::Attr(v(2), a), Term::Var(v(0))),
                Atom::Eq(Term::Var(v(1)), Term::Var(v(0))),
            ),
            (
                "{ x | exists _q0: x in C & _q0 in C & x.A.A = _q0 }",
                Atom::Eq(Term::Var(v(2)), Term::Attr(v(0), a)),
                Atom::Eq(Term::Attr(v(2), a), Term::Var(v(1))),
            ),
        ];
        for (text, path_atom, last) in cases {
            let q = parse_query(&s, text).unwrap();
            assert_eq!(q.var_name(v(1)), "_q0", "{text}");
            assert_eq!(q.var_name(v(2)), "_q1", "{text}");
            assert_eq!(q.atoms()[0], Atom::Range(v(0), vec![c]));
            assert_eq!(q.atoms()[1], Atom::Range(v(1), vec![c]));
            assert_eq!(q.atoms()[2], Atom::Eq(Term::Var(v(2)), Term::Attr(v(0), a)));
            assert!(q.atoms().contains(&path_atom), "{text}");
            assert_eq!(q.atoms().last(), Some(&last), "{text}");
            let shown = q.display(&s).to_string();
            assert_eq!(parse_query(&s, &shown).unwrap(), q, "{shown}");
        }
        // Intermediates are not in scope: naming one without declaring it
        // is an error, not a silent reference.
        let err = parse_query(&s, "{ x | x in C & x.A.A = x & _q0 = x }").unwrap_err();
        assert_eq!(err.to_string(), "1:28: undeclared variable `_q0`");
        // Without a collision the names stay `_q0, _q1, …`.
        let q = parse_query(&s, "{ x | exists y: x in C & y in C & x.A.A.A = y }").unwrap();
        let names: Vec<_> = q.vars().map(|w| q.var_name(w)).collect();
        assert_eq!(names, ["x", "y", "_q0", "_q1"]);
    }

    #[test]
    fn a_very_large_declared_scope_parses_in_linear_time() {
        // About as many names as one 1 MiB request line holds. Scope
        // lookups are hashed, so the declaration check, each reference and
        // each fresh-name probe cost the same however many names precede
        // them.
        let s = self_referencing();
        let names: Vec<String> = (0..100_000).map(|i| format!("v{i:05}")).collect();
        let text = format!(
            "{{ x | exists {}: x in C & v99999 in C & x.A.A = v99999 & v00000 = x }}",
            names.join(",")
        );
        let q = parse_query(&s, &text).unwrap();
        assert_eq!(q.var_count(), 100_002);
        assert_eq!(q.var_name(VarId::from_index(100_001)), "_q0");
        let dup = format!("{{ x | exists {},v99999: x in C }}", names.join(","));
        let err = parse_query(&s, &dup).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("1:{}: variable `v99999` declared twice", 14 + 7 * 100_000)
        );
    }

    #[test]
    fn range_atom_on_path_desugars() {
        // `x.A in D1` — the §2.2 form `y.A θ C₁ ∨ … ∨ Cₙ`.
        let mut sb = oocq_schema::SchemaBuilder::new();
        let c = sb.class("C").unwrap();
        let d = sb.class("D").unwrap();
        let d1 = sb.class("D1").unwrap();
        sb.subclass(d1, d).unwrap();
        sb.attribute(c, "A", oocq_schema::AttrType::Object(d))
            .unwrap();
        let s = sb.finish().unwrap();
        let q = parse_query(&s, "{ x | x in C & x.A in D1 }").unwrap();
        let text = q.display(&s).to_string();
        assert!(text.contains("_q0 = x.A"), "got {text}");
        assert!(text.contains("_q0 in D1"), "got {text}");
        // The desugared query participates in the pipeline end to end.
        let n = oocq_query::normalize(&q, &s).unwrap();
        assert!(oocq_query::check_well_formed(&n).is_ok());
    }

    #[test]
    fn attr_terms_in_equalities() {
        let s = samples::example_31();
        let q = parse_query(&s, "{ x | exists y: x.A = y.A & x in C & y in C }").unwrap();
        assert_eq!(q.atoms().len(), 3);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let s = samples::single_class();
        assert!(parse_query(&s, "{ x | x in C } extra").is_err());
    }
}
