//! The prepared-artifact decision layer: [`PreparedSchema`],
//! [`PreparedQuery`], and the [`Engine`] entry point.
//!
//! Every Theorem 3.1 / §4 decision consumes the same derived artifacts —
//! `QueryAnalysis` (Algorithm *EqualityGraph* closure), per-variable
//! terminal classes (`var_classes`), the satisfiability verdict of
//! Theorem 2.2, the derivability indexes of the mapping search, and the
//! canonical form used for cache keying. Reusing handles, a
//! repeated-decision workload (the service's norm) pays that cost once per
//! *query* instead of once per *decision*.
//!
//! This module is the prepared-statement analogue: a [`PreparedSchema`]
//! derives the schema-level closure eagerly and shares it via `Arc`, a
//! [`PreparedQuery`] memoizes each query-level artifact lazily behind a
//! [`OnceLock`] (an artifact a workload never touches is never built), and
//! an [`Engine`] owns the [`EngineConfig`] (decision cache, budget,
//! isomorphism fast path) and exposes the decision procedures as inherent
//! methods over prepared values. The [`Engine`] is the only decision
//! implementation: the one-shot free functions
//! ([`contains_terminal`](crate::contains_terminal) and friends) build
//! fresh handles and call one [`Engine::serial`] method, so reused handles
//! and fresh ones decide identically by construction (the warm-vs-cold
//! seed sweep in `tests/properties.rs` checks this).
//!
//! What is derived when:
//!
//! | artifact | holder | when |
//! |---|---|---|
//! | terminal-descendant closure, per class | [`PreparedSchema`] | eagerly at construction |
//! | schema fingerprint (`Display` text) and its hash | [`PreparedSchema`] | lazily, first cache keying |
//! | `QueryAnalysis` | [`PreparedQuery`] | lazily, first decision |
//! | per-variable terminal classes | [`PreparedQuery`] | lazily, first decision |
//! | satisfiability verdict (Thm 2.2) | [`PreparedQuery`] | lazily, first decision |
//! | canonical form (cache key) | [`PreparedQuery`] | lazily, first canonical cache keying |
//! | stripped branch base (analysis + [`TargetIndexes`](crate::derive)) | [`PreparedQuery`] | lazily, first Theorem 3.1 run |
//! | satisfiable terminal expansion (Prop 2.1) | [`PreparedQuery`] | lazily, first §4 / union decision |
//!
//! Each cell is built **at most once** per `PreparedQuery` — `OnceLock`
//! enforces it structurally, and [`PreparedQuery::stats`] exposes build
//! counters so tests can assert it observationally.

use crate::branch::{BranchBase, BranchStats, EngineConfig};
use crate::budget::Budget;
use crate::containment::{decide_sides, strategy_for, Strategy};
use crate::error::CoreError;
use crate::explain::Containment;
use crate::minimize::{
    fold_survivors, minimize_terminal_positive, redundancy_flags, MinimizationReport,
};
use crate::satisfiability::{self, strip_non_range, var_classes, Satisfiability};
use oocq_query::{
    canonical_form_budgeted, key_hash, normalize, CanonicalQuery, Query, QueryAnalysis, UnionQuery,
};
use oocq_schema::{ClassId, Schema};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A schema plus the derived structure every decision consults, shared via
/// `Arc` — cloning a `PreparedSchema` is a pointer copy.
///
/// Eagerly derived: the sorted, deduplicated terminal-descendant closure of
/// every class (what Proposition 2.1 expansion and `term-class` queries
/// walk). Lazily derived: the schema fingerprint (its `Display` text,
/// interned as an `Arc<str>`) used by canonical decision caches.
#[derive(Clone)]
pub struct PreparedSchema {
    inner: Arc<SchemaArtifacts>,
}

struct SchemaArtifacts {
    schema: Arc<Schema>,
    /// Sorted, deduplicated terminal descendants per class.
    closure: HashMap<ClassId, Vec<ClassId>>,
    /// The schema's `Display` text and its [`key_hash`], both computed
    /// once on first use.
    fingerprint: OnceLock<(Arc<str>, u64)>,
}

impl PreparedSchema {
    /// Prepare a schema (clones it once into shared ownership).
    pub fn new(schema: &Schema) -> PreparedSchema {
        PreparedSchema::from_arc(Arc::new(schema.clone()))
    }

    /// Prepare an already-shared schema without cloning it.
    pub fn from_arc(schema: Arc<Schema>) -> PreparedSchema {
        let mut closure = HashMap::with_capacity(schema.class_count());
        for c in schema.classes() {
            let mut ds: Vec<ClassId> = schema.terminal_descendants(c).to_vec();
            ds.sort();
            ds.dedup();
            closure.insert(c, ds);
        }
        PreparedSchema {
            inner: Arc::new(SchemaArtifacts {
                schema,
                closure,
                fingerprint: OnceLock::new(),
            }),
        }
    }

    /// The underlying schema.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// The underlying schema's shared handle.
    pub fn schema_arc(&self) -> &Arc<Schema> {
        &self.inner.schema
    }

    /// The schema fingerprint: its `Display` text, rendered once and shared.
    /// Canonical decision caches key entries by this string.
    pub fn fingerprint(&self) -> &Arc<str> {
        &self.fingerprint_memo().0
    }

    /// [`key_hash`] of the [`fingerprint`](Self::fingerprint) text,
    /// computed once with it, so a cache key built from this schema never
    /// re-reads the text to hash it.
    pub fn fingerprint_hash(&self) -> u64 {
        self.fingerprint_memo().1
    }

    fn fingerprint_memo(&self) -> &(Arc<str>, u64) {
        self.inner.fingerprint.get_or_init(|| {
            let text = self.inner.schema.to_string();
            let hash = key_hash(text.as_str());
            (Arc::from(text), hash)
        })
    }

    /// The sorted, deduplicated terminal descendants of one class, from the
    /// eager closure.
    pub fn terminal_closure(&self, c: ClassId) -> &[ClassId] {
        self.inner.closure.get(&c).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The terminal choices for a range disjunction `C₁ ∨ … ∨ Cₙ`: the
    /// sorted, deduplicated union of the per-class closures.
    pub fn terminal_choices(&self, classes: &[ClassId]) -> Vec<ClassId> {
        match classes {
            [c] => self.terminal_closure(*c).to_vec(),
            _ => {
                let mut out: Vec<ClassId> = classes
                    .iter()
                    .flat_map(|&c| self.terminal_closure(c))
                    .copied()
                    .collect();
                out.sort();
                out.dedup();
                out
            }
        }
    }

    /// One handle per member of a union, each bound to this schema.
    pub(crate) fn prepare_union(&self, u: &UnionQuery) -> Vec<PreparedQuery> {
        u.iter()
            .map(|q| PreparedQuery::new(self, q.clone()))
            .collect()
    }
}

/// Fresh handles over one freshly prepared schema: how every one-shot free
/// function enters the [`Engine`].
pub(crate) fn one_shot<const N: usize>(
    schema: &Schema,
    queries: [&Query; N],
) -> [PreparedQuery; N] {
    let ps = PreparedSchema::new(schema);
    queries.map(|q| PreparedQuery::new(&ps, q.clone()))
}

impl std::fmt::Debug for PreparedSchema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedSchema")
            .field("classes", &self.inner.schema.class_count())
            .finish()
    }
}

/// Build counters for the memoized artifacts of one [`PreparedQuery`]. Each
/// counter is `0` or `1` for the lifetime of the prepared query — `OnceLock`
/// admits no second build — which is exactly what the reuse regression tests
/// assert after driving many repeated decisions through one handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreparedQueryStats {
    /// `QueryAnalysis` constructions for the query as written.
    pub analysis_builds: usize,
    /// `var_classes` resolutions.
    pub classes_builds: usize,
    /// Theorem 2.2 satisfiability evaluations.
    pub satisfiability_builds: usize,
    /// Canonical-form computations.
    pub canonical_builds: usize,
    /// Stripped branch-base constructions (analysis + derivability indexes
    /// of the non-range-stripped query, what Theorem 3.1 consumes).
    pub branch_builds: usize,
    /// Satisfiable terminal expansions (Proposition 2.1 pipelines).
    pub expansion_builds: usize,
    /// Cumulative branch-engine instrumentation for every decision that
    /// used this query as the containment *target* (left side): branches
    /// planned / evaluated / pruned, warm-start hits, homomorphism search
    /// effort. All zero until the branch side is first built.
    pub branch_stats: BranchStats,
}

impl PreparedQueryStats {
    /// The sum of all build counters.
    pub fn total_builds(&self) -> usize {
        self.analysis_builds
            + self.classes_builds
            + self.satisfiability_builds
            + self.canonical_builds
            + self.branch_builds
            + self.expansion_builds
    }
}

/// The prepared left/right material of one Theorem 3.1 run: the
/// non-range-stripped query, its terminal classes, and the branch base
/// (analysis + derivability indexes) the plan builder consumes.
pub(crate) struct BranchSide {
    pub(crate) stripped: Query,
    pub(crate) classes: Vec<ClassId>,
    pub(crate) base: BranchBase,
}

struct QueryArtifacts {
    schema: PreparedSchema,
    query: Query,
    analysis: OnceLock<QueryAnalysis>,
    classes: OnceLock<Result<Vec<ClassId>, CoreError>>,
    sat: OnceLock<Result<Satisfiability, CoreError>>,
    canonical: OnceLock<Arc<CanonicalQuery>>,
    branch: OnceLock<Result<BranchSide, CoreError>>,
    /// Satisfiable terminal expansion of the query as written (what
    /// [`crate::expand_satisfiable`] computes).
    raw_expansion: OnceLock<Result<UnionQuery, CoreError>>,
    /// Satisfiable terminal expansion of the §2.3-normalized query (the
    /// first stage of the §4 pipeline and of positive containment).
    normalized_expansion: OnceLock<Result<UnionQuery, CoreError>>,
    builds: Builds,
}

#[derive(Default)]
struct Builds {
    analysis: AtomicUsize,
    classes: AtomicUsize,
    sat: AtomicUsize,
    canonical: AtomicUsize,
    branch: AtomicUsize,
    expansion: AtomicUsize,
}

/// A query bound to a [`PreparedSchema`], with every decision artifact
/// memoized lazily behind a [`OnceLock`]. Cloning is a pointer copy; clones
/// share the memo table, so a query prepared once is analyzed once no
/// matter how many sessions or threads hold it.
#[derive(Clone)]
pub struct PreparedQuery {
    inner: Arc<QueryArtifacts>,
}

impl PreparedQuery {
    /// Bind a query to a prepared schema. Nothing is derived yet.
    pub fn new(schema: &PreparedSchema, query: Query) -> PreparedQuery {
        PreparedQuery {
            inner: Arc::new(QueryArtifacts {
                schema: schema.clone(),
                query,
                analysis: OnceLock::new(),
                classes: OnceLock::new(),
                sat: OnceLock::new(),
                canonical: OnceLock::new(),
                branch: OnceLock::new(),
                raw_expansion: OnceLock::new(),
                normalized_expansion: OnceLock::new(),
                builds: Builds::default(),
            }),
        }
    }

    /// The query as written.
    pub fn query(&self) -> &Query {
        &self.inner.query
    }

    /// The schema this query was prepared against.
    pub fn schema(&self) -> &PreparedSchema {
        &self.inner.schema
    }

    /// `E(Q)` plus term classification (Algorithm *EqualityGraph*), built on
    /// first use.
    pub fn analysis(&self) -> &QueryAnalysis {
        self.inner.analysis.get_or_init(|| {
            self.inner.builds.analysis.fetch_add(1, Ordering::Relaxed);
            QueryAnalysis::of(&self.inner.query)
        })
    }

    /// The terminal class of each variable, resolved on first use. Errors
    /// (a non-terminal range) are memoized too.
    pub fn var_classes(&self) -> Result<&[ClassId], CoreError> {
        self.inner
            .classes
            .get_or_init(|| {
                self.inner.builds.classes.fetch_add(1, Ordering::Relaxed);
                var_classes(self.inner.schema.schema(), &self.inner.query)
            })
            .as_ref()
            .map(Vec::as_slice)
            .map_err(Clone::clone)
    }

    /// The Theorem 2.2 satisfiability verdict, computed on first use from
    /// the memoized classes and analysis.
    pub fn satisfiability(&self) -> Result<Satisfiability, CoreError> {
        self.inner
            .sat
            .get_or_init(|| {
                self.inner.builds.sat.fetch_add(1, Ordering::Relaxed);
                let classes = self.var_classes()?;
                let analysis = self.analysis();
                Ok(satisfiability::check(
                    self.inner.schema.schema(),
                    &self.inner.query,
                    classes,
                    analysis,
                ))
            })
            .clone()
    }

    /// Is the query satisfiable (Theorem 2.2)?
    pub fn is_satisfiable(&self) -> Result<bool, CoreError> {
        Ok(self.satisfiability()?.is_satisfiable())
    }

    /// The isomorphism-invariant canonical form (cache key), computed on
    /// first use. It is shared: cache and flight keys hold this `Arc`
    /// rather than a copy of the form.
    pub fn canonical_form(&self) -> &Arc<CanonicalQuery> {
        match self.try_shared_canonical_form(&Budget::unlimited()) {
            Ok(c) => c,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// [`canonical_form`](Self::canonical_form) under a request budget: the
    /// labeling's in-class backtracking charges one unit per search node, so
    /// a highly automorphic query — whose canonical search is the product of
    /// the factorials of its color-class sizes — trips the recoverable
    /// [`CoreError::Timeout`] instead of hanging the worker. A failed
    /// attempt memoizes nothing; a later call under a larger budget retries
    /// from scratch.
    pub fn try_canonical_form(&self, budget: &Budget) -> Result<&CanonicalQuery, CoreError> {
        self.try_shared_canonical_form(budget).map(|c| &**c)
    }

    /// [`try_canonical_form`](Self::try_canonical_form), returning the
    /// shared `Arc` a key can hold.
    pub fn try_shared_canonical_form(
        &self,
        budget: &Budget,
    ) -> Result<&Arc<CanonicalQuery>, CoreError> {
        if let Some(c) = self.inner.canonical.get() {
            return Ok(c);
        }
        let computed = canonical_form_budgeted(&self.inner.query, &mut |u| budget.charge(u))?;
        Ok(self.inner.canonical.get_or_init(|| {
            self.inner.builds.canonical.fetch_add(1, Ordering::Relaxed);
            Arc::new(computed)
        }))
    }

    /// Build counters for the memoized artifacts (each `0` or `1`), plus
    /// the cumulative [`BranchStats`] of every run that used this query as
    /// its containment target.
    pub fn stats(&self) -> PreparedQueryStats {
        let b = &self.inner.builds;
        PreparedQueryStats {
            analysis_builds: b.analysis.load(Ordering::Relaxed),
            classes_builds: b.classes.load(Ordering::Relaxed),
            satisfiability_builds: b.sat.load(Ordering::Relaxed),
            canonical_builds: b.canonical.load(Ordering::Relaxed),
            branch_builds: b.branch.load(Ordering::Relaxed),
            expansion_builds: b.expansion.load(Ordering::Relaxed),
            branch_stats: self
                .inner
                .branch
                .get()
                .and_then(|r| r.as_ref().ok())
                .map(|side| side.base.counters.snapshot())
                .unwrap_or_default(),
        }
    }

    /// The stripped branch material Theorem 3.1 consumes, built on first
    /// use: strip non-range atoms (§2.5), resolve terminal classes, analyse,
    /// and index derivability.
    pub(crate) fn branch_side(&self) -> Result<&BranchSide, CoreError> {
        self.inner
            .branch
            .get_or_init(|| {
                self.inner.builds.branch.fetch_add(1, Ordering::Relaxed);
                let stripped = strip_non_range(&self.inner.query);
                let classes = var_classes(self.inner.schema.schema(), &stripped)?;
                let base = BranchBase::build(&stripped, &classes);
                Ok(BranchSide {
                    stripped,
                    classes,
                    base,
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The satisfiable terminal expansion (Proposition 2.1 + Theorem 2.2
    /// filter) of the query as written, built on first use. `cfg` governs
    /// scheduling of the first build only — the result is
    /// configuration-independent.
    pub(crate) fn raw_expansion(&self, cfg: &EngineConfig) -> Result<&UnionQuery, CoreError> {
        self.inner
            .raw_expansion
            .get_or_init(|| {
                self.inner.builds.expansion.fetch_add(1, Ordering::Relaxed);
                let analysis = self.analysis();
                crate::expand::expand_satisfiable_inner(
                    self.inner.schema.schema(),
                    &self.inner.query,
                    cfg,
                    Some(&self.inner.schema),
                    analysis,
                )
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The satisfiable terminal expansion of the §2.3-normalized query —
    /// stage one of positive containment and of the §4 minimization
    /// pipeline — built on first use.
    pub(crate) fn normalized_expansion(
        &self,
        cfg: &EngineConfig,
    ) -> Result<&UnionQuery, CoreError> {
        self.inner
            .normalized_expansion
            .get_or_init(|| {
                self.inner.builds.expansion.fetch_add(1, Ordering::Relaxed);
                let schema = self.inner.schema.schema();
                let normalized = oocq_query::normalize(&self.inner.query, schema)?;
                let analysis = QueryAnalysis::of(&normalized);
                crate::expand::expand_satisfiable_inner(
                    schema,
                    &normalized,
                    cfg,
                    Some(&self.inner.schema),
                    &analysis,
                )
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The branches of the memoized normalized expansion, each wrapped in a
    /// fresh handle so a branch's canonical form, satisfiability, classes
    /// and branch base are built once for the whole pairwise sweep instead
    /// of once per pair.
    /// Deliberately not memoized on `self`: the handles live for one call,
    /// so a long-lived parent never pins its branches' artifacts.
    pub(crate) fn expansion_branches(
        &self,
        cfg: &EngineConfig,
    ) -> Result<Vec<PreparedQuery>, CoreError> {
        Ok(self
            .normalized_expansion(cfg)?
            .iter()
            .map(|q| PreparedQuery::new(self.schema(), q.clone()))
            .collect())
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("query", &self.inner.query)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The decision engine: an owned [`EngineConfig`] (request budget,
/// optional [`DecisionCache`](crate::DecisionCache), isomorphism fast path)
/// plus the §3/§4 procedures as inherent methods over prepared values.
///
/// The §4 sweeps (`contains_positive`, the mixed-shape arm of `dispatch`,
/// `coverage`, and `minimize`'s redundancy pass) decide every pair of
/// expansion branches through [`Engine::contains`] over per-call branch
/// handles, so each branch's cache key is labeled once per call and under
/// the request budget.
///
/// This is the only decision implementation: each one-shot free function
/// is a wrapper that prepares fresh handles and calls one method of
/// [`Engine::serial`]. Reusing handles changes *when artifacts are built*,
/// never *what is decided*. Every prepared query must have been prepared
/// against the schema the decision should run under (the left operand's
/// schema is used).
#[derive(Debug, Default)]
pub struct Engine {
    cfg: EngineConfig,
}

impl Engine {
    /// An engine with an explicit configuration.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine { cfg }
    }

    /// The serial reference engine.
    pub fn serial() -> Engine {
        Engine::new(EngineConfig::serial())
    }

    /// The configuration this engine runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// This engine with a decision cache installed.
    pub fn with_cache(mut self, cache: Arc<dyn crate::DecisionCache>) -> Engine {
        self.cfg = self.cfg.with_cache(cache);
        self
    }

    /// Prepare a schema (convenience for [`PreparedSchema::new`]).
    pub fn prepare_schema(&self, schema: &Schema) -> PreparedSchema {
        PreparedSchema::new(schema)
    }

    /// Bind a query to a prepared schema (convenience for
    /// [`PreparedQuery::new`]).
    pub fn prepare(&self, schema: &PreparedSchema, query: &Query) -> PreparedQuery {
        PreparedQuery::new(schema, query.clone())
    }

    /// Theorem 2.2 satisfiability of a prepared query (memoized on the
    /// query handle).
    pub fn satisfiability(&self, p: &PreparedQuery) -> Result<Satisfiability, CoreError> {
        p.satisfiability()
    }

    /// Is the prepared query satisfiable?
    pub fn is_satisfiable(&self, p: &PreparedQuery) -> Result<bool, CoreError> {
        p.is_satisfiable()
    }

    /// Decide `p1 ⊆ p2` for terminal conjunctive queries with the full
    /// certificate (never cached — witness text is cheap to recompute
    /// relative to its size).
    pub fn decide(&self, p1: &PreparedQuery, p2: &PreparedQuery) -> Result<Containment, CoreError> {
        self.decide_strategy(p1, p2, strategy_for(p2.query()), true)
    }

    fn decide_strategy(
        &self,
        p1: &PreparedQuery,
        p2: &PreparedQuery,
        strategy: Strategy,
        collect: bool,
    ) -> Result<Containment, CoreError> {
        if let Some(theory) = crate::theory::active_theory(&self.cfg, p1.schema().schema()) {
            return crate::theory::decide_pair_with_theory(
                theory.as_ref(),
                p1.schema().schema(),
                p1.query(),
                p2.query(),
                strategy,
                &self.cfg,
                collect,
            );
        }
        if let Satisfiability::Unsatisfiable(reason) = p1.satisfiability()? {
            return Ok(Containment::HoldsVacuously(reason));
        }
        if let Satisfiability::Unsatisfiable(reason) = p2.satisfiability()? {
            return Ok(Containment::FailsRightUnsatisfiable(reason));
        }
        let left = p1.branch_side()?;
        let right = p2.branch_side()?;
        decide_sides(
            p1.schema().schema(),
            &left.stripped,
            &left.classes,
            &left.base,
            &right.stripped,
            &right.classes,
            strategy,
            &self.cfg,
            collect,
        )
    }

    /// `p1 ⊆ p2` for terminal conjunctive queries (Theorem 3.1 /
    /// Corollaries 3.2–3.4), consulting and feeding the engine's decision
    /// cache through the prepared canonical forms.
    pub fn contains(&self, p1: &PreparedQuery, p2: &PreparedQuery) -> Result<bool, CoreError> {
        if let Some(cache) = self.cfg.decision_cache() {
            // Canonical cache keys are derived here, under the request
            // budget, so a factorial-regime labeling times out recoverably
            // instead of hanging inside the cache lookup.
            p1.try_canonical_form(&self.cfg.budget)?;
            p2.try_canonical_form(&self.cfg.budget)?;
            if let Some(hit) = cache.get_contains_prepared(p1, p2) {
                return Ok(hit);
            }
        }
        let holds = self
            .decide_strategy(p1, p2, strategy_for(p2.query()), false)?
            .holds();
        if let Some(cache) = self.cfg.decision_cache() {
            cache.put_contains_prepared(p1, p2, holds);
        }
        Ok(holds)
    }

    /// `p1 ⊆ p2` using the full Theorem 3.1 enumeration regardless of
    /// `p2`'s shape.
    pub fn contains_full(&self, p1: &PreparedQuery, p2: &PreparedQuery) -> Result<bool, CoreError> {
        Ok(self.decide_strategy(p1, p2, Strategy::Full, false)?.holds())
    }

    /// `p1 ≡ p2` for terminal conjunctive queries. With the isomorphism
    /// fast path enabled (the default), equality of the memoized canonical
    /// forms short-circuits the check — canonical forms are equal exactly
    /// for isomorphic queries, and isomorphic queries are equivalent.
    pub fn equivalent(&self, p1: &PreparedQuery, p2: &PreparedQuery) -> Result<bool, CoreError> {
        if self.cfg.iso_fast_path
            && p1.try_canonical_form(&self.cfg.budget)?
                == p2.try_canonical_form(&self.cfg.budget)?
        {
            return Ok(true);
        }
        Ok(self.contains(p1, p2)? && self.contains(p2, p1)?)
    }

    /// `p1 ⊆ p2` for positive (not necessarily terminal) conjunctive
    /// queries: normalize, expand to satisfiable terminal unions
    /// (memoized on each handle), then Theorem 4.1 pairwise over per-call
    /// branch handles.
    pub fn contains_positive(
        &self,
        p1: &PreparedQuery,
        p2: &PreparedQuery,
    ) -> Result<bool, CoreError> {
        if !p1.query().is_positive() || !p2.query().is_positive() {
            return Err(CoreError::NotPositive);
        }
        if let Some(cache) = self.cfg.decision_cache() {
            p1.try_canonical_form(&self.cfg.budget)?;
            p2.try_canonical_form(&self.cfg.budget)?;
            if let Some(hit) = cache.get_contains_prepared(p1, p2) {
                return Ok(hit);
            }
        }
        let lefts = p1.expansion_branches(&self.cfg)?;
        let rights = p2.expansion_branches(&self.cfg)?;
        let mut holds = true;
        for q in &lefts {
            // The first uncovered subquery refutes, however much budget the
            // rest would need.
            if !self.covered(q, &rights)? {
                holds = false;
                break;
            }
        }
        if let Some(cache) = self.cfg.decision_cache() {
            cache.put_contains_prepared(p1, p2, holds);
        }
        Ok(holds)
    }

    /// Theorem 4.1's per-subquery test: is the terminal branch `q` contained
    /// in some member of `rights`? Charges one budget unit per subquery.
    /// The expansions are satisfiability-filtered, so no vacuity check.
    fn covered(&self, q: &PreparedQuery, rights: &[PreparedQuery]) -> Result<bool, CoreError> {
        self.cfg.budget.charge(1)?;
        for p in rights {
            if self.contains(q, p)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The `explain` report for operands that are not both terminal: every
    /// satisfiable branch of `p1`'s expansion, paired with whether some
    /// branch of `p2`'s expansion contains it (Theorem 4.1 coverage). An
    /// empty result means every branch of `p1` is unsatisfiable.
    pub fn coverage(
        &self,
        p1: &PreparedQuery,
        p2: &PreparedQuery,
    ) -> Result<Vec<(PreparedQuery, bool)>, CoreError> {
        let lefts = p1.expansion_branches(&self.cfg)?;
        let rights = p2.expansion_branches(&self.cfg)?;
        lefts
            .into_iter()
            .map(|q| {
                let covered = self.covered(&q, &rights)?;
                Ok((q, covered))
            })
            .collect()
    }

    /// `p1 ≡ p2` for positive conjunctive queries.
    pub fn equivalent_positive(
        &self,
        p1: &PreparedQuery,
        p2: &PreparedQuery,
    ) -> Result<bool, CoreError> {
        Ok(self.contains_positive(p1, p2)? && self.contains_positive(p2, p1)?)
    }

    /// Containment dispatch across query shapes: §3 for terminal pairs, §4
    /// for positive pairs, left-expansion against a terminal right side.
    /// Shapes outside the decidable fragment are rejected with
    /// [`CoreError::NotPositive`].
    pub fn dispatch(&self, p1: &PreparedQuery, p2: &PreparedQuery) -> Result<bool, CoreError> {
        let schema = p1.schema().schema();
        if p1.query().is_terminal(schema) && p2.query().is_terminal(schema) {
            return self.contains(p1, p2);
        }
        if p1.query().is_positive() && p2.query().is_positive() {
            return self.contains_positive(p1, p2);
        }
        if p2.query().is_terminal(schema) {
            for sub in p1.expansion_branches(&self.cfg)? {
                if !self.contains(&sub, p2)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        Err(CoreError::NotPositive)
    }

    /// Proposition 2.1 + Theorem 2.2: the satisfiable terminal expansion of
    /// a prepared query, memoized on the handle.
    pub fn expand_satisfiable(&self, p: &PreparedQuery) -> Result<UnionQuery, CoreError> {
        Ok(p.raw_expansion(&self.cfg)?.clone())
    }

    /// The full §4 pipeline: exact, search-space-optimal minimization of a
    /// positive conjunctive query. The expansion stage is memoized on the
    /// handle, and the redundancy pass decides branch pairs through
    /// [`Engine::contains`]; the whole result is memoized in the engine's
    /// decision cache (keyed by the exact query — minimization output
    /// carries variable names).
    pub fn minimize(&self, p: &PreparedQuery) -> Result<UnionQuery, CoreError> {
        if !p.query().is_positive() {
            return Err(CoreError::NotPositive);
        }
        let schema = p.schema().schema();
        if let Some(cache) = self.cfg.decision_cache() {
            if let Some(hit) = cache.get_minimized_prepared(p) {
                return Ok(hit);
            }
        }
        let branches = p.expansion_branches(&self.cfg)?;
        let sat: Vec<&Query> = branches.iter().map(PreparedQuery::query).collect();
        let dropped = redundancy_flags(&sat, &self.cfg, |i, j| {
            self.contains(&branches[i], &branches[j])
        })?;
        let result = fold_survivors(schema, &sat, &dropped, &self.cfg)?;
        if let Some(cache) = self.cfg.decision_cache() {
            cache.put_minimized_prepared(p, &result);
        }
        Ok(result)
    }

    /// [`Engine::minimize`] with a full trace of the §4 pipeline: what was
    /// expanded, which branches died and why, what was dropped as redundant,
    /// and which subqueries folded. The trace is never cached (it is a
    /// rendering artifact), but its redundancy checks go through
    /// [`Engine::contains`].
    pub fn minimize_report(&self, p: &PreparedQuery) -> Result<MinimizationReport, CoreError> {
        if !p.query().is_positive() {
            return Err(CoreError::NotPositive);
        }
        let schema = p.schema().schema();
        let normalized = normalize(p.query(), schema)?;
        let expanded_union = crate::expand::expand(schema, &normalized)?;
        let mut unsatisfiable = Vec::new();
        let mut survivors = Vec::new();
        for sub in &expanded_union {
            match satisfiability::satisfiability(schema, sub)? {
                Satisfiability::Satisfiable => {
                    survivors.push(PreparedQuery::new(p.schema(), strip_non_range(sub)))
                }
                Satisfiability::Unsatisfiable(reason) => unsatisfiable.push((sub.clone(), reason)),
            }
        }
        let refs: Vec<&Query> = survivors.iter().map(PreparedQuery::query).collect();
        let dropped = redundancy_flags(&refs, &self.cfg, |i, j| {
            self.contains(&survivors[i], &survivors[j])
        })?;
        let mut redundant = Vec::new();
        let mut folds = Vec::new();
        let mut result = UnionQuery::empty();
        for (sub, dropped) in refs.into_iter().zip(dropped) {
            if dropped {
                redundant.push(sub.clone());
                continue;
            }
            let m = minimize_terminal_positive(schema, sub)?;
            if m.var_count() < sub.var_count() {
                folds.push((sub.clone(), m.clone()));
            }
            result.push(m);
        }
        Ok(MinimizationReport {
            normalized,
            expanded: expanded_union.len(),
            unsatisfiable,
            redundant,
            folds,
            result,
        })
    }

    /// Theorem 4.1: containment of unions of terminal **positive**
    /// conjunctive queries is pairwise — `M ⊆ N` iff every satisfiable `Qᵢ`
    /// of `M` is contained in some `Pⱼ` of `N`. Stops at the first
    /// uncovered subquery.
    pub fn union_contains(
        &self,
        m: &[PreparedQuery],
        n: &[PreparedQuery],
    ) -> Result<bool, CoreError> {
        if m.iter().chain(n).any(|p| !p.query().is_positive()) {
            return Err(CoreError::NotPositive);
        }
        for q in m {
            // An unsatisfiable subquery contributes nothing.
            if q.is_satisfiable()? && !self.covered(q, n)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Theorem 4.2: remove redundant subqueries from a union of terminal
    /// positive conjunctive queries. Unsatisfiable subqueries are dropped,
    /// then any `Qᵢ` contained in a retained `Qⱼ` (`j ≠ i`), keeping the
    /// first representative of each equivalence group.
    pub fn nonredundant_union(&self, u: &[PreparedQuery]) -> Result<UnionQuery, CoreError> {
        let mut sat = Vec::new();
        for p in u {
            if p.is_satisfiable()? {
                sat.push(p);
            }
        }
        let queries: Vec<&Query> = sat.iter().map(|p| p.query()).collect();
        let dropped = redundancy_flags(&queries, &self.cfg, |i, j| self.contains(sat[i], sat[j]))?;
        Ok(queries
            .into_iter()
            .zip(dropped)
            .filter(|(_, d)| !d)
            .map(|(q, _)| q.clone())
            .collect())
    }

    /// Variable minimization of one general (not necessarily positive)
    /// terminal conjunctive query: every fold is verified by
    /// [`Engine::equivalent`] (see [`crate::minimize_terminal_general`]).
    pub fn minimize_terminal_general(&self, p: &PreparedQuery) -> Result<Query, CoreError> {
        crate::general::fold_verified(self, p)
    }

    /// Variable minimization for general (not necessarily positive)
    /// conjunctive queries (§4 closing remarks), deciding every
    /// containment and equivalence through this engine.
    pub fn minimize_general(&self, p: &PreparedQuery) -> Result<UnionQuery, CoreError> {
        crate::general::minimize_union(self, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocq_query::QueryBuilder;
    use oocq_schema::samples;

    fn vehicle_query(s: &Schema) -> Query {
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        b.range(y, [s.class_id("Discount").unwrap()]);
        b.member(x, y, s.attr_id("VehRented").unwrap());
        b.build()
    }

    #[test]
    fn prepared_schema_closure_matches_schema() {
        let s = samples::vehicle_rental();
        let ps = PreparedSchema::new(&s);
        for c in s.classes() {
            let mut expect: Vec<ClassId> = s.terminal_descendants(c).to_vec();
            expect.sort();
            expect.dedup();
            assert_eq!(ps.terminal_closure(c), expect.as_slice());
        }
        let vehicle = s.class_id("Vehicle").unwrap();
        let client = s.class_id("Client").unwrap();
        let merged = ps.terminal_choices(&[vehicle, client]);
        assert_eq!(merged.len(), 5); // Auto, Trailer, Truck, Discount, Regular
    }

    #[test]
    fn fingerprint_is_interned_display_text() {
        let s = samples::single_class();
        let ps = PreparedSchema::new(&s);
        assert_eq!(ps.fingerprint().as_ref(), s.to_string());
        assert!(Arc::ptr_eq(ps.fingerprint(), ps.fingerprint()));
        assert_eq!(ps.fingerprint_hash(), key_hash(s.to_string().as_str()));
    }

    #[test]
    fn artifacts_build_at_most_once() {
        let s = samples::vehicle_rental();
        let ps = PreparedSchema::new(&s);
        let engine = Engine::serial();
        let q = vehicle_query(&s);
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        let loose = b.build();
        let p1 = PreparedQuery::new(&ps, q);
        let p2 = PreparedQuery::new(&ps, loose);
        assert_eq!(p1.stats().total_builds(), 0, "preparation derives nothing");
        for _ in 0..50 {
            assert!(engine.dispatch(&p1, &p2).unwrap());
            assert!(engine.contains_positive(&p1, &p2).unwrap());
            // Satisfiability is a terminal-query notion; the memo records
            // (and replays) the NotTerminal error for this non-terminal q.
            assert!(matches!(
                engine.satisfiability(&p1),
                Err(CoreError::NotTerminal { .. })
            ));
        }
        let st = p1.stats();
        assert!(st.analysis_builds <= 1, "{st:?}");
        assert!(st.classes_builds <= 1, "{st:?}");
        assert!(st.satisfiability_builds <= 1, "{st:?}");
        assert!(st.canonical_builds <= 1, "{st:?}");
        assert!(st.branch_builds <= 1, "{st:?}");
        assert!(st.expansion_builds <= 2, "raw + normalized at most: {st:?}");
        assert!(p2.stats().total_builds() <= 7);
    }

    #[test]
    fn engine_matches_free_functions_on_paper_examples() {
        let s = samples::vehicle_rental();
        let ps = PreparedSchema::new(&s);
        let engine = Engine::serial();
        let q = vehicle_query(&s);
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [s.class_id("Auto").unwrap()]);
        let autos = b.build();
        let pq = PreparedQuery::new(&ps, q.clone());
        let pa = PreparedQuery::new(&ps, autos.clone());
        assert_eq!(
            engine.contains_positive(&pq, &pa).unwrap(),
            crate::contains_positive(&s, &q, &autos).unwrap()
        );
        assert_eq!(
            engine.minimize(&pq).unwrap(),
            crate::minimize_positive(&s, &q).unwrap()
        );
        assert_eq!(
            engine.expand_satisfiable(&pq).unwrap(),
            crate::expand_satisfiable(&s, &q).unwrap()
        );
        assert_eq!(
            engine.satisfiability(&pa).unwrap(),
            crate::satisfiability(&s, &autos).unwrap()
        );
    }

    #[test]
    fn equivalent_uses_canonical_fast_path() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mk = |names: [&str; 2]| {
            let mut b = QueryBuilder::new(names[0]);
            let x = b.free();
            let y = b.var(names[1]);
            b.range(x, [c]).range(y, [c]).neq_vars(x, y);
            b.build()
        };
        let ps = PreparedSchema::new(&s);
        let p1 = PreparedQuery::new(&ps, mk(["x", "y"]));
        let p2 = PreparedQuery::new(&ps, mk(["a", "b"]));
        let engine = Engine::serial();
        assert!(engine.equivalent(&p1, &p2).unwrap());
        // The fast path decided it: no branch machinery was built.
        assert_eq!(p1.stats().branch_builds, 0);
        assert_eq!(p1.stats().canonical_builds, 1);
        // Without the fast path the answer is the same.
        let slow = Engine::new(EngineConfig::serial().without_iso_fast_path());
        assert!(slow.equivalent(&p1, &p2).unwrap());
        assert_eq!(p1.stats().branch_builds, 1);
    }

    #[test]
    fn mismatched_shapes_rejected_like_free_dispatch() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [c]).range(y, [c]).neq_vars(x, y);
        let neq = b.build();
        let ps = PreparedSchema::new(&s);
        let p = PreparedQuery::new(&ps, neq);
        let engine = Engine::serial();
        assert!(matches!(
            engine.contains_positive(&p, &p),
            Err(CoreError::NotPositive)
        ));
        assert!(matches!(engine.minimize(&p), Err(CoreError::NotPositive)));
    }
}
