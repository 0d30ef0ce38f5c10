//! Execution of workbench programs under an explicit [`EngineConfig`].
//!
//! [`run_program_with`] renders byte-identical transcripts to the original
//! serial workbench runner (the `tests/corpus` golden files are the
//! contract), while routing every engine decision through one [`Engine`]
//! over the configured decision cache and budget. The root crate's
//! `oocq::run_program` delegates here with [`EngineConfig::serial`].

use oocq_core::{
    expand, satisfiability, CoreError, Engine, EngineConfig, PreparedQuery, PreparedSchema,
    Satisfiability,
};
use oocq_parser::{parse_program, Command, ParseError, Program};
use oocq_query::normalize;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors from running a workbench program.
#[derive(Debug)]
pub enum RunError {
    /// The program text failed to parse.
    Parse(ParseError),
    /// A command failed (e.g. minimizing a non-positive query).
    Core(CoreError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Parse(e) => write!(f, "parse error at {e}"),
            RunError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ParseError> for RunError {
    fn from(e: ParseError) -> Self {
        RunError::Parse(e)
    }
}

impl From<CoreError> for RunError {
    fn from(e: CoreError) -> Self {
        RunError::Core(e)
    }
}

/// Parse and run a program under a configuration, returning the rendered
/// transcript.
pub fn run_workbench_with(source: &str, cfg: &EngineConfig) -> Result<String, RunError> {
    let program = parse_program(source)?;
    run_program_with(&program, cfg).map_err(Into::into)
}

/// Run an already-parsed program under a configuration.
///
/// Output is independent of `cfg.threads` and of the cache state (the
/// corpus replay tests in this crate assert both).
pub fn run_program_with(program: &Program, cfg: &EngineConfig) -> Result<String, CoreError> {
    let s = &program.schema;
    let eng = Engine::new(cfg.clone());
    // Prepare the schema and every named query once; all commands over a
    // name then share its memoized analysis, classes, canonical form, and
    // branch indexes.
    let ps = PreparedSchema::new(s);
    let prepared: HashMap<&str, PreparedQuery> = program
        .queries
        .iter()
        .map(|(n, q)| (n.as_str(), PreparedQuery::new(&ps, q.clone())))
        .collect();
    let prep = |name: &str| prepared.get(name).expect("validated by the parser");
    let mut out = String::new();
    for cmd in &program.commands {
        match cmd {
            Command::Satisfiable(name) => {
                let q = prep(name).query();
                let _ = writeln!(out, "satisfiable {name}?");
                let u = expand(s, &normalize(q, s)?)?;
                for sub in &u {
                    match satisfiability(s, sub)? {
                        Satisfiability::Satisfiable => {
                            let _ = writeln!(out, "  SAT   {}", sub.display(s));
                        }
                        Satisfiability::Unsatisfiable(reason) => {
                            let _ = writeln!(out, "  UNSAT {} ({reason})", sub.display(s));
                        }
                    }
                }
            }
            Command::CheckContains(a, b) => {
                let holds = eng.dispatch(prep(a), prep(b))?;
                let _ = writeln!(
                    out,
                    "check {a} <= {b}: {}",
                    if holds { "holds" } else { "FAILS" }
                );
            }
            Command::CheckEquivalent(a, b) => {
                let (pa, pb) = (prep(a), prep(b));
                let holds = eng.dispatch(pa, pb)? && eng.dispatch(pb, pa)?;
                let _ = writeln!(
                    out,
                    "check {a} == {b}: {}",
                    if holds { "holds" } else { "FAILS" }
                );
            }
            Command::Explain(a, b) => {
                let (pa, pb) = (prep(a), prep(b));
                let (qa, qb) = (pa.query(), pb.query());
                let _ = writeln!(out, "explain {a} <= {b}:");
                if qa.is_terminal(s) && qb.is_terminal(s) {
                    let proof = eng.decide(pa, pb)?;
                    for line in proof.render(s, qa, qb).lines() {
                        let _ = writeln!(out, "  {line}");
                    }
                } else {
                    for line in coverage_lines(&eng, pa, pb, a)? {
                        let _ = writeln!(out, "  {line}");
                    }
                }
            }
            Command::Expand(name) => {
                let q = prep(name).query();
                let u = expand(s, &normalize(q, s)?)?;
                let _ = writeln!(out, "expand {name} ({} branches):", u.len());
                for sub in &u {
                    let _ = writeln!(out, "  {}", sub.display(s));
                }
            }
            Command::Minimize(name) => match eng.minimize(prep(name)) {
                Ok(m) => {
                    let _ = writeln!(out, "minimize {name}:");
                    if m.is_empty() {
                        let _ = writeln!(out, "  (unsatisfiable: empty union)");
                    }
                    for sub in &m {
                        let _ = writeln!(out, "  {}", sub.display(s));
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "minimize {name}: cannot minimize ({e})");
                }
            },
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

/// The `explain` report for operands that are not both terminal, shared by
/// the workbench and the daemon: one `covered`/`UNCOVERED` line per
/// satisfiable branch of `pa`'s expansion ([`Engine::coverage`]), or one
/// vacuity line when there is none. `name` is how `pa` is called in it.
pub(crate) fn coverage_lines(
    eng: &Engine,
    pa: &PreparedQuery,
    pb: &PreparedQuery,
    name: &str,
) -> Result<Vec<String>, CoreError> {
    let s = pa.schema().schema();
    let branches = eng.coverage(pa, pb)?;
    if branches.is_empty() {
        return Ok(vec![format!(
            "holds vacuously: every branch of {name} is unsatisfiable"
        )]);
    }
    Ok(branches
        .iter()
        .map(|(sub, covered)| {
            let tag = if *covered { "covered " } else { "UNCOVERED" };
            format!("{tag} {}", sub.query().display(s))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_for_a_tiny_program() {
        let text = "schema { class C {} } query Q = { x | x in C } \
                    satisfiable Q check Q <= Q minimize Q";
        let out = run_workbench_with(text, &EngineConfig::serial()).unwrap();
        assert!(out.contains("SAT   { x | x in C }"));
        assert!(out.contains("check Q <= Q: holds"));
        assert!(out.contains("minimize Q:\n  { x | x in C }"));
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            run_workbench_with("query Q = { x | x in C }", &EngineConfig::serial()),
            Err(RunError::Parse(_))
        ));
    }
}
