//! The workbench program format: one file bundling a schema, named queries,
//! and analysis commands.
//!
//! ```text
//! schema {
//!     class Vehicle {}
//!     class Auto : Vehicle {}
//!     class Client { VehRented: {Vehicle}; }
//! }
//!
//! query All  = { x | x in Vehicle }
//! query Some = { x | exists y: x in Auto & y in Client & x in y.VehRented }
//!
//! satisfiable Some
//! check Some <= All
//! check All == Some
//! explain Some <= All
//! expand All
//! minimize Some
//! ```
//!
//! The `oocq_cli` example executes these programs.

use crate::error::ParseError;
use crate::lexer::{Cursor, Tok};
use crate::query_parser::parse_query_at;
use crate::schema_parser::parse_schema_at;
use oocq_query::Query;
use oocq_schema::Schema;

/// An analysis command of a workbench program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Command {
    /// `satisfiable Q` — decide and report satisfiability of every terminal
    /// expansion branch.
    Satisfiable(String),
    /// `check A <= B` — decide containment.
    CheckContains(String, String),
    /// `check A == B` — decide equivalence.
    CheckEquivalent(String, String),
    /// `explain A <= B` — decide containment and print the certificate.
    Explain(String, String),
    /// `expand Q` — print the terminal expansion.
    Expand(String),
    /// `minimize Q` — print the search-space-optimal form.
    Minimize(String),
}

/// A parsed workbench program.
#[derive(Clone, Debug)]
pub struct Program {
    /// The schema all queries are resolved against.
    pub schema: Schema,
    /// Named queries, in declaration order.
    pub queries: Vec<(String, Query)>,
    /// Commands, in order.
    pub commands: Vec<Command>,
}

impl Program {
    /// Look up a named query.
    pub fn query(&self, name: &str) -> Option<&Query> {
        self.queries
            .iter()
            .find_map(|(n, q)| (n == name).then_some(q))
    }
}

/// Split the raw text around the `schema { … }` block and per-line
/// constructs, then delegate to the schema/query parsers. The delegated
/// parsers lex their slices from the slices' own positions, so every error
/// is positioned in `input`.
pub fn parse_program(input: &str) -> Result<Program, ParseError> {
    Cursor::parse(input, |cur| program(input, cur))
}

fn program<'a>(input: &'a str, cur: &mut Cursor<'a>) -> Result<Program, ParseError> {
    // `schema { … }` must come first; find its balanced brace extent and
    // re-parse that slice of the original text with the schema parser.
    let kw = cur.next();
    if kw.tok != Tok::Ident("schema") {
        return Err(kw.error("a program must start with `schema { … }`"));
    }
    let brace = cur.peek();
    if brace.tok != Tok::LBrace {
        return Err(brace.error("expected `{` after `schema`"));
    }
    let Some((open, close)) = cur.balanced() else {
        return Err(kw.error("unterminated schema block"));
    };
    // The block starts one char after its `{`.
    let schema = parse_schema_at(
        &input[open.offset + 1..close.offset],
        (open.line, open.col + 1),
    )?;

    let mut queries: Vec<(String, Query)> = Vec::new();
    let mut commands: Vec<Command> = Vec::new();
    while cur.peek().tok != Tok::Eof {
        let t = cur.next();
        let Tok::Ident(word) = t.tok else {
            return Err(t.error(format!(
                "expected a declaration or command, found {}",
                t.tok.describe()
            )));
        };
        match word {
            "query" => {
                let (name, _) = cur.ident()?;
                cur.expect(Tok::Eq)?;
                // The query body is a balanced `{ … }` block.
                let body = cur.peek();
                if body.tok != Tok::LBrace {
                    return Err(body.error("expected `{` starting the query body"));
                }
                let Some((open, close)) = cur.balanced() else {
                    return Err(body.error("unterminated query body"));
                };
                let q = parse_query_at(
                    &schema,
                    &input[open.offset..=close.offset],
                    (open.line, open.col),
                )?;
                if queries.iter().any(|(n, _)| n == name) {
                    return Err(t.error(format!("query `{name}` defined twice")));
                }
                queries.push((name.to_owned(), q));
            }
            "satisfiable" => {
                commands.push(Command::Satisfiable(known_query(cur, &queries)?));
            }
            "expand" => {
                commands.push(Command::Expand(known_query(cur, &queries)?));
            }
            "minimize" => {
                commands.push(Command::Minimize(known_query(cur, &queries)?));
            }
            "check" | "explain" => {
                let a = known_query(cur, &queries)?;
                let op = cur.next();
                let op_error = || {
                    op.error(format!(
                        "expected `<=`{} after `{word}`, found {}",
                        if word == "check" { " or `==`" } else { "" },
                        op.tok.describe()
                    ))
                };
                // The right operand is read before a wrong operator is
                // reported, unless there is no right operand at all.
                if op.tok == Tok::Eof {
                    return Err(op_error());
                }
                let b = known_query(cur, &queries)?;
                commands.push(match (op.tok, word) {
                    (Tok::Le, "check") => Command::CheckContains(a, b),
                    (Tok::EqEq, "check") => Command::CheckEquivalent(a, b),
                    (Tok::Le, "explain") => Command::Explain(a, b),
                    _ => return Err(op_error()),
                });
            }
            other => return Err(t.error(format!("unknown directive `{other}`"))),
        }
    }
    Ok(Program {
        schema,
        queries,
        commands,
    })
}

/// Consume the name of an already-defined query.
fn known_query(cur: &mut Cursor<'_>, queries: &[(String, Query)]) -> Result<String, ParseError> {
    let (name, at) = cur.ident()?;
    if !queries.iter().any(|(n, _)| n == name) {
        return Err(at.error(format!("unknown query `{name}`")));
    }
    Ok(name.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
        schema {
            class Vehicle {}
            class Auto : Vehicle {}
            class Client { VehRented: {Vehicle}; }
        }

        query All  = { x | x in Vehicle }
        query Some = { x | exists y: x in Auto & y in Client & x in y.VehRented }

        satisfiable Some
        check Some <= All
        check All == Some
        explain Some <= All
        expand All
        minimize Some
    "#;

    #[test]
    fn parses_full_program() {
        let p = parse_program(DEMO).unwrap();
        assert_eq!(p.queries.len(), 2);
        assert_eq!(p.commands.len(), 6);
        assert!(p.query("All").is_some());
        assert!(p.query("Nope").is_none());
        assert_eq!(
            p.commands[1],
            Command::CheckContains("Some".into(), "All".into())
        );
        assert_eq!(
            p.commands[2],
            Command::CheckEquivalent("All".into(), "Some".into())
        );
        assert_eq!(p.commands[3], Command::Explain("Some".into(), "All".into()));
    }

    #[test]
    fn unknown_query_in_command_is_an_error() {
        let err =
            parse_program("schema { class C {} } query Q = { x | x in C } check Q <= Missing")
                .unwrap_err();
        assert!(err.message.contains("unknown query `Missing`"));
    }

    #[test]
    fn duplicate_query_name_is_an_error() {
        let err = parse_program(
            "schema { class C {} } query Q = { x | x in C } query Q = { x | x in C }",
        )
        .unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn program_must_start_with_schema() {
        let err = parse_program("query Q = { x | x in C }").unwrap_err();
        assert!(err.message.contains("must start with `schema"));
    }

    #[test]
    fn schema_errors_propagate_with_position() {
        let err = parse_program("schema { class C : Missing {} }").unwrap_err();
        assert!(err.message.contains("unknown class `Missing`"));
    }

    #[test]
    fn unknown_directive_is_an_error() {
        let err = parse_program("schema { class C {} } query Q = { x | x in C } frobnicate Q")
            .unwrap_err();
        assert!(err.message.contains("unknown directive"));
    }

    #[test]
    fn query_bodies_resolve_against_the_program_schema() {
        let err = parse_program("schema { class C {} } query Q = { x | x in D }").unwrap_err();
        assert!(err.message.contains("unknown class `D`"));
    }
}
