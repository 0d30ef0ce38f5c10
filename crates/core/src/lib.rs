//! # oocq-core
//!
//! The primary contribution of Chan, *Containment and Minimization of
//! Positive Conjunctive Queries in OODB's* (PODS 1992):
//!
//! * satisfiability of terminal conjunctive queries (Theorem 2.2,
//!   reconstructed — see [`satisfiability`]);
//! * terminal expansion (Proposition 2.1, [`expand`]);
//! * containment of terminal conjunctive queries via non-contradictory
//!   variable mappings (Theorem 3.1 and Corollaries 3.2–3.4,
//!   [`contains_terminal`]);
//! * containment and equivalence of unions of terminal positive conjunctive
//!   queries (Theorem 4.1, [`union_contains`]);
//! * exact, search-space-optimal minimization of positive conjunctive
//!   queries (Theorems 4.2–4.5, [`minimize_positive`]).
//!
//! Every decision goes through one implementation, the prepared layer —
//! [`Engine`], [`PreparedSchema`], [`PreparedQuery`] — which derives each
//! decision artifact (analysis, terminal classes, satisfiability, canonical
//! form, branch indexes, expansion) at most once per query and shares it
//! across every subsequent decision on the same handles. Budgets, decision
//! caches and theories are configured on the [`Engine`]. The free
//! functions are one-shot wrappers: each prepares fresh handles and calls
//! one [`Engine::serial`] method.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod budget;
mod cache;
mod containment;
mod derive;
mod engine;
mod error;
mod expand;
mod explain;
mod general;
mod minimize;
mod satisfiability;
mod theory;

pub use branch::{BranchStats, EngineConfig, MAX_BRANCHES};
pub use budget::Budget;
pub use cache::DecisionCache;
pub use containment::{
    contains_positive, contains_terminal, contains_terminal_full, decide_containment,
    dispatch_containment, equivalent_positive, equivalent_terminal, strategy_for, union_contains,
    union_equivalent, Strategy,
};
pub use derive::SearchOrder;
pub use engine::{Engine, PreparedQuery, PreparedQueryStats, PreparedSchema};
pub use error::CoreError;
pub use expand::{expand, expand_satisfiable, expansion_size};
pub use explain::{Containment, MappingWitness};
pub use general::{minimize_general, minimize_terminal_general};
pub use minimize::{
    cost_leq, is_minimal_terminal_positive, minimize_positive, minimize_positive_report,
    minimize_terminal_positive, nonredundant_union, search_space_cost, term_class, union_cost,
    MinimizationReport,
};
pub use satisfiability::{
    is_satisfiable, satisfiability, strip_non_range, var_classes, Satisfiability, UnsatReason,
};
pub use theory::{
    compiled_left, theory_stats, Compiled, ConstraintTheory, EmptyTheory, Side, Theory,
    TheoryStats, MAX_CHASE_ROUNDS, MAX_CHASE_VARS,
};
