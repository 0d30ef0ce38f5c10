//! # oocq-query
//!
//! The conjunctive query language of Chan (PODS 1992), §2.2–§2.3: terms,
//! atoms, conjunctive queries and unions thereof, Algorithm *EqualityGraph*,
//! object/set term classification, well-formedness checking, and the
//! normalization that repairs conditions (ii)/(iii) of §2.3.
//!
//! Queries are pure syntax over a [`Schema`](oocq_schema::Schema)'s interned
//! class/attribute ids; all semantic operations (satisfiability,
//! containment, evaluation) live in the downstream crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod atom;
mod canonical;
mod display;
mod equality;
mod error;
mod isomorphism;
mod query;
mod term;

pub use analysis::{check_well_formed, maximal_classes, normalize, QueryAnalysis};
pub use atom::Atom;
pub use canonical::{canonical_form, canonical_form_budgeted, key_hash, CanonicalQuery};
pub use display::{DisplayQuery, DisplayUnion};
pub use equality::EqualityGraph;
pub use error::WellFormedError;
pub use isomorphism::{find_isomorphism, isomorphic};
pub use query::{Query, QueryBuilder, UnionQuery};
pub use term::{Term, VarId};
