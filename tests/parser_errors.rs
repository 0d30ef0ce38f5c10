//! Error-reporting quality of the parsers: every diagnostic carries the
//! right position and names the offending construct.

use oocq::{parse_program, parse_query, parse_schema, parse_union};

fn schema() -> oocq::Schema {
    parse_schema("class C { A: C; S: {C}; } class D : C {}").unwrap()
}

#[test]
fn schema_error_positions() {
    // Unknown parent on line 2.
    let err = parse_schema("class A {}\nclass B : Nope {}").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.message.contains("Nope"));

    // Bad token inside a class body.
    let err = parse_schema("class A { 5: B; }").unwrap_err();
    assert_eq!(err.line, 1);
    assert!(err.message.contains("unexpected character"));

    // Missing braces.
    let err = parse_schema("class A").unwrap_err();
    assert!(err.message.contains("expected"));
}

#[test]
fn query_error_positions() {
    let s = schema();
    // Undeclared variable on line 2.
    let err = parse_query(&s, "{ x | x in C\n  & x = zz }").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.message.contains("undeclared variable `zz`"));

    // Unknown class.
    let err = parse_query(&s, "{ x | x in Unknown }").unwrap_err();
    assert!(err.message.contains("unknown class `Unknown`"));

    // Unknown attribute in a path.
    let err = parse_query(&s, "{ x | exists y: x in C & y = x.Bogus }").unwrap_err();
    assert!(err.message.contains("unknown attribute `Bogus`"));

    // Operator soup.
    let err = parse_query(&s, "{ x | x ~ y }").unwrap_err();
    assert!(err.message.contains("unexpected character `~`"));

    // `not` without `in`.
    let err = parse_query(&s, "{ x | exists y: x not y }").unwrap_err();
    assert!(err.message.contains("expected `in` after `not`"));
}

#[test]
fn union_error_positions() {
    let s = schema();
    let err = parse_union(&s, "{ x | x in C } union { y | y in Nope }").unwrap_err();
    assert!(err.message.contains("unknown class"));
    // Garbage between members.
    let err = parse_union(&s, "{ x | x in C } onion { x | x in C }").unwrap_err();
    assert!(err.message.contains("end of input") || err.message.contains("expected"));
}

#[test]
fn program_error_positions() {
    // Commands referencing queries defined later are still unknown at use.
    let err =
        parse_program("schema { class C {} }\ncheck Q <= Q\nquery Q = { x | x in C }").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.message.contains("unknown query `Q`"));

    // Wrong operator in a check.
    let err =
        parse_program("schema { class C {} } query Q = { x | x in C } check Q != Q").unwrap_err();
    assert!(err.message.contains("expected `<=`"));
}

#[test]
fn display_of_errors_is_position_prefixed() {
    let err = parse_schema("class A : Nope {}").unwrap_err();
    let text = err.to_string();
    assert!(text.starts_with("1:"), "got {text}");
}

#[test]
fn deeply_nested_but_valid_inputs_parse() {
    let s = schema();
    // A long conjunction with every atom family and path sugar.
    let q = parse_query(
        &s,
        "{ x | exists y, z: x in C | D & y in C & z in C \
           & y = x.A & z != x.A.A & z in y.S & z not in x.A.S & x not in D }",
    )
    .unwrap();
    assert!(q.var_count() >= 3);
    // Round trip of the desugared form.
    let text = q.display(&s).to_string();
    assert_eq!(parse_query(&s, &text).unwrap(), q);
}

/// Which entry point a malformed input goes through.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Schema,
    Query,
    Union,
    Program,
}

fn first_error(entry: Entry, input: &str) -> String {
    let s = schema();
    let result = match entry {
        Entry::Schema => parse_schema(input).map(drop),
        Entry::Query => parse_query(&s, input).map(drop),
        Entry::Union => parse_union(&s, input).map(drop),
        Entry::Program => parse_program(input).map(drop),
    };
    match result {
        Ok(()) => "<accepted>".to_owned(),
        Err(e) => e.to_string(),
    }
}

/// Malformed inputs and their exact diagnostics, `line:col: message`.
/// Columns count chars, not bytes; errors inside a program's schema block
/// or query body are positioned in the whole program text.
#[rustfmt::skip]
const PINNED: &[(Entry, &str, &str)] = &[
    // Schemas.
    (Entry::Schema, "class A {}\nclass B : Nope {}", "2:11: unknown class `Nope`"),
    (Entry::Schema, "class A { 5: B; }", "1:11: unexpected character `5`"),
    (Entry::Schema, "class A", "1:8: expected `{`, found end of input"),
    (Entry::Schema, "class A { F }", "1:13: expected `:`, found `}`"),
    (Entry::Schema, "class A { F: {A; }", "1:16: expected `}`, found `;`"),
    (Entry::Schema, "class A { F: B; }", "1:11: unknown class `B`"),
    (Entry::Schema, "class A {} class A {}", "1:18: class `A` declared more than once"),
    (Entry::Schema, "klass A {}", "1:1: expected `class` or `constraint`, found `klass`"),
    (Entry::Schema, "class A {}\nconstraint exclusive A A;", "2:12: expected `disjoint`, `total`, or `functional`, found `exclusive`"),
    (Entry::Schema, "class A { F: A; }\nconstraint total A F;", "2:20: expected `.`, found `F`"),
    (Entry::Schema, "class Ärger {}\nclass Öl : Ärger, Ü {}", "2:19: unknown class `Ü`"),
    (Entry::Schema, "class A { F: A; ", "1:17: expected an identifier, found end of input"),
    // Queries.
    (Entry::Query, "{ x | x in C\n  & x = zz }", "2:9: undeclared variable `zz`"),
    (Entry::Query, "{ x | exists y, y: x in C }", "1:17: variable `y` declared twice"),
    (Entry::Query, "{ x | x in Unknown }", "1:12: unknown class `Unknown`"),
    (Entry::Query, "{ x | exists y: x in C & y = x.Bogus }", "1:32: unknown attribute `Bogus`"),
    (Entry::Query, "{ x | x in C & x.S.Bogus in C }", "1:20: unknown attribute `Bogus`"),
    (Entry::Query, "{ x | x ~ y }", "1:9: unexpected character `~`"),
    (Entry::Query, "{ x | exists y: x not y }", "1:23: expected `in` after `not`"),
    (Entry::Query, "{ x | x in C } extra", "1:16: expected end of input, found `extra`"),
    (Entry::Query, "{ x | x in C / 2 }", "1:14: unexpected `/`"),
    (Entry::Query, "{ x | x in C }/", "1:15: unexpected `/`"),
    (Entry::Query, "{ x | x ! C }", "1:9: expected `!=`"),
    (Entry::Query, "{ x | x < y }", "1:9: expected `<=`"),
    (Entry::Query, "{ ñandú | ñandú in C & ñandú ! ñandú }", "1:30: expected `!=`"),
    (Entry::Query, "{ ünï | ünï in C & ünï = Ωmega }", "1:26: undeclared variable `Ωmega`"),
    (Entry::Query, "{ x |\u{a0}x in C & y = x }", "1:16: undeclared variable `y`"),
    (Entry::Query, "{ x |\u{b}x in C & $ }", "1:16: unexpected character `$`"),
    (Entry::Query, "{ x | x }", "1:9: expected `=`, `!=`, `in`, or `not in`, found `}`"),
    (Entry::Query, "{ x x in C }", "1:5: expected `|`, found `x`"),
    (Entry::Query, "{ x | exists y x in C }", "1:16: expected `:`, found `x`"),
    (Entry::Query, "{ x | x in C | }", "1:16: expected an identifier, found `}`"),
    (Entry::Query, "{ x | x in Nope | }", "1:19: expected an identifier, found `}`"),
    (Entry::Query, "{ x | x in C & }", "1:16: expected an identifier, found `}`"),
    (Entry::Query, "{ x | true & x in C }", "1:12: expected `}`, found `&`"),
    (Entry::Query, "{ x | x in C", "1:13: expected `}`, found end of input"),
    (Entry::Query, "", "1:1: expected `{`, found end of input"),
    (Entry::Query, "{ x | x in C & x == x }", "1:18: expected `=`, `!=`, `in`, or `not in`, found `==`"),
    (Entry::Query, "{ x | exists y: x in C & y in C & x.A.A = y.Nope }", "1:45: unknown attribute `Nope`"),
    (Entry::Query, "{ x | exists y: x in C & y in x.A.Nope.S }", "1:35: unknown attribute `Nope`"),
    (Entry::Query, "{ 5 | x in C }", "1:3: unexpected character `5`"),
    (Entry::Query, "// header\n{ x | exists y:\n  x in C & y in C\n  & y in x.Q }", "4:12: unknown attribute `Q`"),
    // Unions.
    (Entry::Union, "{ x | x in C } union { y | y in Nope }", "1:33: unknown class `Nope`"),
    (Entry::Union, "{ x | x in C } onion { x | x in C }", "1:16: expected end of input, found `onion`"),
    (Entry::Union, "{ x | x in C } union", "1:21: expected `{`, found end of input"),
    // Programs.
    (Entry::Program, "schema { class C {} }\ncheck Q <= Q\nquery Q = { x | x in C }", "2:7: unknown query `Q`"),
    (Entry::Program, "schema { class C {} } query Q = { x | x in C } check Q != Q", "1:56: expected `<=` or `==` after `check`, found `!=`"),
    (Entry::Program, "schema { class C {} } query Q = { x | x in C } explain Q == Q", "1:58: expected `<=` after `explain`, found `==`"),
    (Entry::Program, "schema { class C {} } query Q = { x | x in C } check Q = R", "1:58: unknown query `R`"),
    (Entry::Program, "schema { class C {}", "1:1: unterminated schema block"),
    (Entry::Program, "query Q = { x | x in C }", "1:1: a program must start with `schema { … }`"),
    (Entry::Program, "", "1:1: a program must start with `schema { … }`"),
    (Entry::Program, "schema class C {}", "1:8: expected `{` after `schema`"),
    (Entry::Program, "schema { class C : Missing {} }", "1:20: unknown class `Missing`"),
    (Entry::Program, "schema {\n  class C {}\n}\nquery Q = { x | x in D }", "4:22: unknown class `D`"),
    (Entry::Program, "schema { class C {} } query Q = { x | x in C", "1:33: unterminated query body"),
    (Entry::Program, "schema { class C {} } query Q { x | x in C }", "1:31: expected `=`, found `{`"),
    (Entry::Program, "schema { class C {} } query Q = x", "1:33: expected `{` starting the query body"),
    (Entry::Program, "schema { class C {} } frobnicate Q", "1:23: unknown directive `frobnicate`"),
    (Entry::Program, "schema { class C {} } ;", "1:23: expected a declaration or command, found `;`"),
    (Entry::Program, "schema { class C {} } query Q = { x | x in C }\nquery Q = { x | x in C }", "2:1: query `Q` defined twice"),
    (Entry::Program, "schema { class C {} }\n// comment\n\nquery Q = { x | x in C }\ncheck Q <= R", "5:12: unknown query `R`"),
    (Entry::Program, "schema { class Ç {} }\nquery Q = { x | x in Ç & x = ÿ }", "2:30: undeclared variable `ÿ`"),
    (Entry::Program, "schema { class C {} } query Q = { x | x in C } $", "1:48: unexpected character `$`"),
];

#[test]
fn pinned_error_texts() {
    let mut drift = Vec::new();
    for &(entry, input, want) in PINNED {
        let got = first_error(entry, input);
        if got != want {
            drift.push(format!("    (Entry::{entry:?}, {input:?}, {got:?}),"));
        }
    }
    assert!(drift.is_empty(), "error text drift:\n{}", drift.join("\n"));
}
