//! Parser for the schema DSL.
//!
//! ```text
//! class Vehicle { AssignedTo: Client; }
//! class Auto : Vehicle {}
//! class Client { VehRented: {Vehicle}; }
//! class Discount : Client { VehRented: {Auto}; }
//! ```
//!
//! A class body lists `Attr: Type;` declarations where `Type` is a class
//! name (object-valued) or `{ClassName}` (set-valued). Classes may be
//! referenced before their declaration (two-pass resolution).
//!
//! Top-level `constraint` declarations narrow the legal states
//! (see [`oocq_schema::Constraint`]):
//!
//! ```text
//! constraint disjoint Client Vehicle;
//! constraint total Client.VehRented;
//! constraint functional Client.VehRented;
//! ```

use crate::error::ParseError;
use crate::lexer::{Cursor, Spanned, Tok};
use oocq_schema::{AttrType, Constraint, Schema, SchemaBuilder, SchemaError};

/// A name and the token it was read from.
type Name<'a> = (&'a str, Spanned<'a>);

struct RawClass<'a> {
    name: Name<'a>,
    parents: Vec<Name<'a>>,
    attrs: Vec<(Name<'a>, RawType<'a>)>,
}

enum RawType<'a> {
    Object(&'a str),
    SetOf(&'a str),
}

/// One `constraint …` declaration before name resolution.
enum RawConstraint<'a> {
    Disjoint(&'a str, &'a str),
    Total(&'a str, &'a str),
    Functional(&'a str, &'a str),
}

/// Parse a schema from the DSL.
pub fn parse_schema(input: &str) -> Result<Schema, ParseError> {
    Cursor::parse(input, schema)
}

/// [`parse_schema`] of a slice of a larger text that starts at
/// `(line, col)` of it, with errors positioned in the larger text.
pub(crate) fn parse_schema_at(input: &str, start: (usize, usize)) -> Result<Schema, ParseError> {
    Cursor::parse_at(input, start, schema)
}

fn schema(cur: &mut Cursor<'_>) -> Result<Schema, ParseError> {
    let mut raw: Vec<RawClass<'_>> = Vec::new();
    let mut raw_constraints: Vec<(RawConstraint<'_>, Spanned<'_>)> = Vec::new();
    while cur.peek().tok != Tok::Eof {
        let (kw, at) = cur.ident()?;
        if kw == "constraint" {
            raw_constraints.push((parse_constraint(cur)?, at));
            continue;
        }
        if kw != "class" {
            return Err(at.error(format!("expected `class` or `constraint`, found `{kw}`")));
        }
        let name = cur.ident()?;
        let mut parents = Vec::new();
        if cur.eat(Tok::Colon) {
            loop {
                parents.push(cur.ident()?);
                if !cur.eat(Tok::Comma) {
                    break;
                }
            }
        }
        cur.expect(Tok::LBrace)?;
        let mut attrs = Vec::new();
        while !cur.eat(Tok::RBrace) {
            let attr = cur.ident()?;
            cur.expect(Tok::Colon)?;
            let ty = if cur.eat(Tok::LBrace) {
                let (c, _) = cur.ident()?;
                cur.expect(Tok::RBrace)?;
                RawType::SetOf(c)
            } else {
                RawType::Object(cur.ident()?.0)
            };
            cur.eat(Tok::Semi);
            attrs.push((attr, ty));
        }
        raw.push(RawClass {
            name,
            parents,
            attrs,
        });
    }

    // Two-pass build: declare all classes, then edges and attributes.
    let mut b = SchemaBuilder::new();
    for rc in &raw {
        let (name, at) = rc.name;
        b.class(name).map_err(|e| schema_err(at, e))?;
    }
    for rc in &raw {
        let child = b.class_id(rc.name.0).expect("declared above");
        for &(p, at) in &rc.parents {
            let parent = b
                .class_id(p)
                .ok_or_else(|| at.error(format!("unknown class `{p}`")))?;
            b.subclass(child, parent).map_err(|e| schema_err(at, e))?;
        }
        for &((attr, at), ref ty) in &rc.attrs {
            let resolve = |n: &str| {
                b.class_id(n)
                    .ok_or_else(|| at.error(format!("unknown class `{n}`")))
            };
            let ty = match *ty {
                RawType::Object(n) => AttrType::Object(resolve(n)?),
                RawType::SetOf(n) => AttrType::SetOf(resolve(n)?),
            };
            b.attribute(child, attr, ty)
                .map_err(|e| schema_err(at, e))?;
        }
    }
    let mut finish_at = cur.start();
    for &(ref rc, at) in &raw_constraints {
        let class = |n: &str| {
            b.class_id(n)
                .ok_or_else(|| at.error(format!("unknown class `{n}`")))
        };
        let attr = |b: &SchemaBuilder, n: &str| {
            b.attr_id(n)
                .ok_or_else(|| at.error(format!("unknown attribute `{n}`")))
        };
        let c = match *rc {
            RawConstraint::Disjoint(x, y) => Constraint::Disjoint(class(x)?, class(y)?),
            RawConstraint::Total(cl, a) => Constraint::Total(class(cl)?, attr(&b, a)?),
            RawConstraint::Functional(cl, a) => Constraint::Functional(class(cl)?, attr(&b, a)?),
        };
        b.constraint(c);
        // Constraint validation happens inside `finish`; attribute its
        // errors to the last constraint's position rather than line 1.
        finish_at = (at.line, at.col);
    }
    b.finish()
        .map_err(|e| ParseError::new(finish_at.0, finish_at.1, e.to_string()))
}

/// Parse the tail of one `constraint` declaration (the keyword itself is
/// already consumed): `disjoint A B;`, `total C.A;`, or `functional C.A;`.
fn parse_constraint<'a>(cur: &mut Cursor<'a>) -> Result<RawConstraint<'a>, ParseError> {
    let (kind, at) = cur.ident()?;
    let raw = match kind {
        "disjoint" => {
            let (a, _) = cur.ident()?;
            let (b, _) = cur.ident()?;
            RawConstraint::Disjoint(a, b)
        }
        "total" | "functional" => {
            let (class, _) = cur.ident()?;
            cur.expect(Tok::Dot)?;
            let (attr, _) = cur.ident()?;
            if kind == "total" {
                RawConstraint::Total(class, attr)
            } else {
                RawConstraint::Functional(class, attr)
            }
        }
        other => {
            return Err(at.error(format!(
                "expected `disjoint`, `total`, or `functional`, found `{other}`"
            )))
        }
    };
    cur.eat(Tok::Semi);
    Ok(raw)
}

fn schema_err(at: Spanned<'_>, e: SchemaError) -> ParseError {
    at.error(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const VEHICLE: &str = r#"
        class Vehicle { AssignedTo: Client; }
        class Auto : Vehicle {}
        class Trailer : Vehicle {}
        class Truck : Vehicle {}
        class Client { VehRented: {Vehicle}; }
        class Discount : Client { VehRented: {Auto}; }
        class Regular : Client {}
    "#;

    #[test]
    fn parses_vehicle_rental_schema() {
        let s = parse_schema(VEHICLE).unwrap();
        assert_eq!(s.class_count(), 7);
        let discount = s.class_id("Discount").unwrap();
        let veh = s.attr_id("VehRented").unwrap();
        assert_eq!(
            s.attr_type(discount, veh),
            Some(AttrType::SetOf(s.class_id("Auto").unwrap()))
        );
        assert!(s.is_subclass(discount, s.class_id("Client").unwrap()));
    }

    #[test]
    fn forward_references_allowed() {
        // Vehicle references Client before its declaration above; also check
        // the other order explicitly.
        let s = parse_schema("class A { F: B; } class B {}").unwrap();
        assert!(s.class_id("B").is_some());
    }

    #[test]
    fn multiple_parents() {
        let s = parse_schema("class A {} class B {} class C : A, B {}").unwrap();
        let c = s.class_id("C").unwrap();
        assert!(s.is_subclass(c, s.class_id("A").unwrap()));
        assert!(s.is_subclass(c, s.class_id("B").unwrap()));
    }

    #[test]
    fn unknown_parent_is_an_error_with_position() {
        let err = parse_schema("class A : Missing {}").unwrap_err();
        assert!(err.message.contains("Missing"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn schema_errors_are_surfaced() {
        let err = parse_schema("class A {} class A {}").unwrap_err();
        assert!(err.message.contains("declared more than once"));
        // Invalid refinement.
        let err = parse_schema("class P { F: P; } class R {} class Q : P { F: R; }").unwrap_err();
        assert!(err.message.contains("not a subtype"));
    }

    #[test]
    fn comments_and_missing_semicolons_tolerated() {
        let s = parse_schema("// header\nclass A { F: A }").unwrap();
        assert_eq!(s.class_count(), 1);
    }

    #[test]
    fn display_is_a_fixpoint_for_reparsed_schemas() {
        // The rendered description of a schema is stable under
        // parse→render — which is what lets `oocq-service` use the
        // description string as a collision-free schema cache key.
        for s in [
            oocq_schema::samples::single_class(),
            oocq_schema::samples::vehicle_rental(),
            oocq_schema::samples::n1_partition(),
            oocq_schema::samples::unrelated_subtypes(),
            oocq_schema::samples::example_31(),
            oocq_schema::samples::example_33(),
        ] {
            let text = s.to_string();
            let reparsed = parse_schema(&text).unwrap();
            assert_eq!(reparsed.to_string(), text);
        }
    }

    const CONSTRAINED: &str = r#"
        class P {}
        class Q {}
        class B {}
        class T1 : B { F: T1; Items: {T1}; }
        class T2 : B, P, Q {}
        constraint disjoint Q P;
        constraint total T1.F;
        constraint functional T1.Items;
    "#;

    #[test]
    fn parses_constraint_declarations() {
        let s = parse_schema(CONSTRAINED).unwrap();
        assert_eq!(s.constraints().len(), 3);
        assert!(s.is_dead_terminal(s.class_id("T2").unwrap()));
        assert!(!s.is_dead_terminal(s.class_id("T1").unwrap()));
    }

    #[test]
    fn constrained_display_is_a_fixpoint() {
        let s = parse_schema(CONSTRAINED).unwrap();
        let text = s.to_string();
        assert!(text.contains("constraint disjoint P Q;"), "{text}");
        let reparsed = parse_schema(&text).unwrap();
        assert_eq!(reparsed.to_string(), text);
        assert_eq!(reparsed.constraints(), s.constraints());
    }

    #[test]
    fn constraint_with_unknown_class_is_an_error_with_position() {
        let err = parse_schema("class A {}\nconstraint disjoint A Missing;").unwrap_err();
        assert!(err.message.contains("unknown class `Missing`"), "{err}");
        assert_eq!(err.line, 2);
        let err = parse_schema("class A {}\nconstraint total Missing.F;").unwrap_err();
        assert!(err.message.contains("unknown class `Missing`"), "{err}");
    }

    #[test]
    fn constraint_with_unknown_attribute_is_an_error() {
        let err = parse_schema("class A {}\nconstraint total A.Nope;").unwrap_err();
        assert!(err.message.contains("unknown attribute `Nope`"), "{err}");
        // An attribute that exists, but not on that class.
        let err = parse_schema("class A { F: A; } class B {}\nconstraint total B.F;").unwrap_err();
        assert!(err.message.contains("no such attribute"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn duplicate_constraints_are_an_error() {
        let err = parse_schema(
            "class A {} class B {}\nconstraint disjoint A B;\nconstraint disjoint B A;",
        )
        .unwrap_err();
        assert!(err.message.contains("more than once"), "{err}");
    }

    #[test]
    fn partitioning_contradictions_are_an_error() {
        let err = parse_schema("class A {} class B : A {}\nconstraint disjoint A B;").unwrap_err();
        assert!(err.message.contains("terminal partitioning"), "{err}");
        let err = parse_schema("class A {}\nconstraint disjoint A A;").unwrap_err();
        assert!(err.message.contains("never disjoint from itself"), "{err}");
    }

    #[test]
    fn malformed_constraint_syntax_is_an_error() {
        let err = parse_schema("class A {}\nconstraint exclusive A A;").unwrap_err();
        assert!(err.message.contains("expected `disjoint`"), "{err}");
        let err = parse_schema("class A { F: A; }\nconstraint total A F;").unwrap_err();
        assert!(err.message.contains("expected `.`"), "{err}");
        let err = parse_schema("class A {}\nconstrain disjoint A A;").unwrap_err();
        assert!(
            err.message.contains("expected `class` or `constraint`"),
            "{err}"
        );
    }

    #[test]
    fn functionality_of_object_attribute_is_an_error() {
        let err = parse_schema("class A { F: A; }\nconstraint functional A.F;").unwrap_err();
        assert!(err.message.contains("set-valued"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let s = parse_schema(VEHICLE).unwrap();
        let text = s.to_string();
        let s2 = parse_schema(&text).unwrap();
        assert_eq!(s.class_count(), s2.class_count());
        for c in s.classes() {
            let name = s.class_name(c);
            let c2 = s2.class_id(name).unwrap();
            assert_eq!(
                s.parents(c).len(),
                s2.parents(c2).len(),
                "parents of {name}"
            );
            assert_eq!(s.effective_type(c).len(), s2.effective_type(c2).len());
        }
    }
}
