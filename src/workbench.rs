//! Execution of workbench programs (see [`parse_program`]): runs each
//! command against the program's schema and renders the results as text.
//! Shared by the `oocq_cli` example and the golden-file corpus tests.
//!
//! The actual runner lives in `oocq-service` ([`oocq_service::run_program_with`])
//! so the `oocq-serve` daemon can execute `run` requests with an explicit
//! [`EngineConfig`]; these wrappers run it on the serial engine (no
//! decision reads the pool size) and keep its exact output bytes.

use crate::{parse_program, CoreError, EngineConfig, ParseError, Program};
use oocq_service::RunError;

/// Errors from running a workbench program.
#[derive(Debug)]
pub enum WorkbenchError {
    /// The program text failed to parse.
    Parse(ParseError),
    /// A command failed (e.g. minimizing a non-positive query).
    Core(CoreError),
}

impl std::fmt::Display for WorkbenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkbenchError::Parse(e) => write!(f, "parse error at {e}"),
            WorkbenchError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorkbenchError {}

impl From<ParseError> for WorkbenchError {
    fn from(e: ParseError) -> Self {
        WorkbenchError::Parse(e)
    }
}

impl From<CoreError> for WorkbenchError {
    fn from(e: CoreError) -> Self {
        WorkbenchError::Core(e)
    }
}

impl From<RunError> for WorkbenchError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Parse(e) => WorkbenchError::Parse(e),
            RunError::Core(e) => WorkbenchError::Core(e),
        }
    }
}

/// Parse and run a program, returning the rendered transcript.
pub fn run_workbench(source: &str) -> Result<String, WorkbenchError> {
    let program = parse_program(source)?;
    run_program(&program).map_err(Into::into)
}

/// Run an already-parsed program on the serial engine.
pub fn run_program(program: &Program) -> Result<String, CoreError> {
    oocq_service::run_program_with(program, &EngineConfig::serial())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_for_a_tiny_program() {
        let text = "schema { class C {} } query Q = { x | x in C } \
                    satisfiable Q check Q <= Q minimize Q";
        let out = run_workbench(text).unwrap();
        assert!(out.contains("SAT   { x | x in C }"));
        assert!(out.contains("check Q <= Q: holds"));
        assert!(out.contains("minimize Q:\n  { x | x in C }"));
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            run_workbench("query Q = { x | x in C }"),
            Err(WorkbenchError::Parse(_))
        ));
    }

    #[test]
    fn dispatch_rejects_undecidable_shapes() {
        // Non-positive AND non-terminal on the right: outside the fragment.
        let s = crate::parse_schema("class C {} class D : C {}").unwrap();
        let qa = crate::parse_query(&s, "{ x | x in C }").unwrap();
        let qb = crate::parse_query(&s, "{ x | exists y: x in C & y in C & x != y }").unwrap();
        assert!(crate::dispatch_containment(&s, &qa, &qb).is_err());
    }
}
