//! # oocq — Containment and Minimization of Positive Conjunctive Queries in OODBs
//!
//! A complete implementation of Edward P.F. Chan's PODS 1992 paper
//! *"Containment and Minimization of Positive Conjunctive Queries in
//! OODB's"*: the OODB schema model with inheritance and the Terminal Class
//! Partitioning Assumption, the conjunctive query language with
//! (non-)membership and (in)equality atoms over object terms, Algorithm
//! *EqualityGraph*, satisfiability of terminal conjunctive queries,
//! containment via non-contradictory variable mappings (Theorem 3.1 and
//! Corollaries 3.2–3.4), union containment (Theorem 4.1), and the exact,
//! search-space-optimal minimization of positive conjunctive queries
//! (Theorems 4.2–4.5).
//!
//! This crate is a facade: each subsystem lives in its own crate
//! (`oocq-schema`, `oocq-query`, `oocq-state`, `oocq-eval`, `oocq-parser`,
//! `oocq-core`, `oocq-rel`, `oocq-gen`), all re-exported here.
//!
//! ## Quickstart
//!
//! Example 1.1 of the paper: discount customers may rent automobiles only,
//! so a query ranging over `Vehicle` can be narrowed to `Auto`. Decisions
//! go through an [`Engine`]: preparing the schema and query once lets every
//! later decision on the same handles reuse the memoized analysis.
//!
//! ```
//! use oocq::{Engine, parse_query, parse_schema};
//!
//! let schema = parse_schema(r#"
//!     class Vehicle {}
//!     class Auto : Vehicle {}
//!     class Trailer : Vehicle {}
//!     class Truck : Vehicle {}
//!     class Client { VehRented: {Vehicle}; }
//!     class Discount : Client { VehRented: {Auto}; }
//!     class Regular : Client {}
//! "#).unwrap();
//!
//! let query = parse_query(
//!     &schema,
//!     "{ x | exists y: x in Vehicle & y in Discount & x in y.VehRented }",
//! ).unwrap();
//!
//! let engine = Engine::serial();
//! let prepared_schema = engine.prepare_schema(&schema);
//! let prepared = engine.prepare(&prepared_schema, &query);
//!
//! let optimal = engine.minimize(&prepared).unwrap();
//! assert_eq!(
//!     optimal.display(&schema).to_string(),
//!     "{ x | exists y: x in Auto & y in Discount & x in y.VehRented }",
//! );
//! // A one-shot free function prepares fresh handles and calls the same
//! // Engine method:
//! assert_eq!(oocq::minimize_positive(&schema, &query).unwrap(), optimal);
//! ```
//!
//! ## Crate map
//!
//! | Module source | Provides |
//! |---|---|
//! | `oocq-schema` | [`Schema`], [`SchemaBuilder`], [`AttrType`], subtyping, terminal classes |
//! | `oocq-query` | [`Query`], [`QueryBuilder`], [`Atom`], [`Term`], [`EqualityGraph`], well-formedness |
//! | `oocq-state` | [`State`], [`StateBuilder`], [`Value`], legal-state validation |
//! | `oocq-eval` | [`answer`], [`answer_union`], 3-valued [`Truth`] |
//! | `oocq-parser` | [`parse_schema`], [`parse_query`], [`parse_union`] |
//! | `oocq-core` | [`Engine`], [`PreparedQuery`], [`contains_terminal`], [`union_contains`], [`minimize_positive`], [`is_satisfiable`], [`expand`] |
//! | `oocq-rel` | [`rel`]: the Chandra–Merlin relational baseline |
//! | `oocq-gen` | [`gen`]: workload and random-instance generators |
//! | `oocq-service` | [`ServiceEngine`], [`serve`], [`CanonicalDecisionCache`] — the `oocq-serve` daemon |
//! | `oocq-oracle` | [`oracle`]: the differential soundness oracle and the `oracle_fuzz` fuzzer |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use oocq_core::{
    compiled_left, contains_positive, contains_terminal, contains_terminal_full, cost_leq,
    decide_containment, dispatch_containment, equivalent_positive, equivalent_terminal, expand,
    expand_satisfiable, expansion_size, is_minimal_terminal_positive, is_satisfiable,
    minimize_general, minimize_positive, minimize_positive_report, minimize_terminal_general,
    minimize_terminal_positive, nonredundant_union, satisfiability, search_space_cost,
    strategy_for, strip_non_range, term_class, theory_stats, union_contains, union_cost,
    union_equivalent, var_classes, BranchStats, Budget, Compiled, ConstraintTheory, Containment,
    CoreError, DecisionCache, EmptyTheory, Engine, EngineConfig, MappingWitness,
    MinimizationReport, PreparedQuery, PreparedQueryStats, PreparedSchema, Satisfiability,
    SearchOrder, Side, Strategy, Theory, TheoryStats, UnsatReason, MAX_BRANCHES, MAX_CHASE_ROUNDS,
    MAX_CHASE_VARS,
};
pub use oocq_eval::{
    answer, answer_planned, answer_union, answer_with_plan, canonical_contains, canonical_state,
    eval_atom, eval_matrix, refute_containment, CounterExample, Plan, Truth,
};
pub use oocq_parser::{
    parse_program, parse_query, parse_schema, parse_union, Command, ParseError, Program,
};
pub use oocq_query::{
    canonical_form, check_well_formed, find_isomorphism, isomorphic, maximal_classes, normalize,
    Atom, CanonicalQuery, DisplayQuery, DisplayUnion, EqualityGraph, Query, QueryAnalysis,
    QueryBuilder, Term, UnionQuery, VarId, WellFormedError,
};
pub use oocq_schema::{
    samples, AttrId, AttrType, ClassId, Constraint, Schema, SchemaBuilder, SchemaError,
    SchemaStats, TupleType,
};
pub use oocq_service::{
    run_program_with, run_workbench_with, serve, CacheStats, CanonicalDecisionCache, Request,
    RequestStats, ServiceEngine,
};
pub use oocq_state::{
    DisplayState, Object, Oid, State, StateBuilder, StateError, StateStats, Value,
};

pub mod tutorial;
pub mod workbench;

pub use workbench::{run_program, run_workbench, WorkbenchError};

/// The Chandra–Merlin relational conjunctive-query baseline.
pub mod rel {
    pub use oocq_rel::*;
}

/// Workload and random-instance generators.
pub mod gen {
    pub use oocq_gen::*;
}

/// The differential soundness oracle: cross-checks containment verdicts
/// against brute-force evaluation, steered by refutation certificates.
pub mod oracle {
    pub use oocq_oracle::*;
}
