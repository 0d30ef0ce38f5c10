//! The branch engine behind the Theorem 3.1 containment enumeration.
//!
//! Theorem 3.1 quantifies over *branches*: one per pair `(S, W)` of a
//! consistent equality augmentation `S` of `Q₁` and a subset `W` of the
//! satisfiable membership augmentations of `Q₁&S`. The engine makes that
//! branch space explicit and cheap to walk:
//!
//! * **Global index space.** Branches are numbered `0..total` — each
//!   consistent `S` contributes a contiguous block of `2^|T(S)|` indices,
//!   one per membership-subset bitmask, in the same order the old inline
//!   double loop produced them. A single `u64` therefore names a branch.
//! * **Shared per-`S` state.** For each consistent `S` the plan stores the
//!   augmented query `Q₁&S`, its [`QueryAnalysis`] (computed incrementally
//!   from the base analysis via [`QueryAnalysis::extended`] rather than from
//!   scratch), and the derivability indexes ([`TargetIndexes`]) the mapping
//!   search consults. A `W` subset adds membership atoms only: those merge
//!   no equivalence classes and touch no typing check, so *all* `2^|T(S)|`
//!   branches of the block share one analysis and one index, and a branch is
//!   materialized by inserting at most `|T(S)|` membership keys into a
//!   cloned hash set ([`TargetCtx::add_member_key`]) — no query rebuild, no
//!   re-analysis, no per-branch satisfiability pass (a `debug_assert`
//!   rechecks that claim in test builds).
//! * **Monotone sub-lattice pruning.** Within a block, the only atoms of
//!   `Q₂` a `W` extension can invalidate are non-memberships: `W` atoms
//!   merge no equivalence classes, and membership derivability only grows.
//!   Every evaluated witness therefore carries a *danger set* — the
//!   candidate bits whose membership key coincides with one of the
//!   witness's non-membership images. A witness whose danger bits all lie
//!   inside its own mask is valid at **every** superset mask, so the walk
//!   records it as *stable* and decides the whole superset sub-lattice
//!   without another search; a stable empty subset decides its entire
//!   block. The same danger bits give an O(1) warm-start test: the
//!   previous branch's witness is reused whenever its mask is a subset of
//!   the current one and no added bit is dangerous. Pruned branches are
//!   *decided*, not skipped — certificates still carry one witness per
//!   branch — so verdicts, witness order, and replay transcripts are
//!   identical with pruning on or off ([`EngineConfig::without_pruning`]
//!   exists so tests and benchmarks can prove that).
//! * **One serial block walk.** Blocks are walked in index order on the
//!   calling thread, each by the same deterministic procedure, so the
//!   certificate — witness list, witness order, and the first refuted
//!   branch — is a pure function of the inputs. Requests are the unit of
//!   concurrency: the `oocq-serve` worker pool runs many decisions side by
//!   side, never one decision across threads. A worker pool over
//!   `S`-blocks measured no speedup over this walk on a 2-core host
//!   (EXPERIMENTS.md B7).

use crate::budget::Budget;
use crate::cache::DecisionCache;
use crate::derive::{
    find_mapping_with, MappingCounters, MappingGoal, SearchOrder, TargetCtx, TargetIndexes,
};
use crate::error::CoreError;
use crate::explain::{Containment, MappingWitness};
use crate::satisfiability;
use oocq_query::{Atom, Query, QueryAnalysis, Term, VarId};
use oocq_schema::{AttrId, AttrType, ClassId, Schema};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on the number of branches (equality augmentations times
/// membership subsets) the Theorem 3.1 enumeration will explore, as a guard
/// against accidentally exponential inputs. Exceeding it is a recoverable
/// [`CoreError::BranchLimit`], not a panic.
pub const MAX_BRANCHES: u64 = 1 << 22;

/// How the containment engine walks the branch space, plus the optional
/// collaborators every decision entry point consults.
///
/// Every decision runs on the calling thread, evaluating branches in index
/// order. The one concurrency setting, [`threads`](EngineConfig::threads),
/// sizes the `oocq-serve` request worker pool and is read by nothing in
/// this crate.
///
/// Neither collaborator affects *what* is decided — a cache may only replay
/// values the engine would compute, and the isomorphism fast path only
/// short-circuits checks whose outcome renaming already determines — so
/// every configuration is observationally identical on decision values.
#[derive(Clone)]
pub struct EngineConfig {
    /// Request worker-pool size for a serving layer built on this
    /// configuration (`oocq-serve` reads it; decisions themselves are
    /// always serial).
    pub threads: usize,
    /// Memo table consulted (and fed) by the boolean containment and
    /// minimization entry points. `None` (the default) decides everything
    /// from scratch.
    pub cache: Option<Arc<dyn DecisionCache>>,
    /// Short-circuit equivalence-shaped checks on isomorphism before
    /// running Theorem 3.1 (isomorphic queries are equivalent):
    /// [`Engine::equivalent`](crate::Engine::equivalent) compares the
    /// memoized canonical forms, and the §4 redundancy sweeps of
    /// [`Engine::minimize`](crate::Engine::minimize),
    /// [`Engine::minimize_report`](crate::Engine::minimize_report) and
    /// [`Engine::nonredundant_union`](crate::Engine::nonredundant_union)
    /// test branch pairs with [`oocq_query::isomorphic`]. On by default;
    /// exists as a switch so tests can show the fast path changes
    /// nothing.
    pub iso_fast_path: bool,
    /// The cooperative request budget the hot loops charge. The default
    /// ([`Budget::unlimited`]) never trips and costs nothing; a tripped
    /// budget surfaces as the recoverable [`CoreError::Timeout`]. A budget
    /// that never trips changes no decision value, so the observational-
    /// identity guarantee above extends to generous budgets too.
    pub budget: Budget,
    /// Monotone sub-lattice pruning plus warm-start witness reuse across
    /// the `W` subsets of a block (see the module docs). Pruned branches
    /// are decided, not skipped, so this changes no decision value and no
    /// certificate shape. Always on in production;
    /// [`EngineConfig::without_pruning`] selects the exhaustive reference
    /// walk (differential tests, pruning benchmarks).
    pub prune: bool,
    /// Variable order for the homomorphism search. The default
    /// ([`SearchOrder::MostConstrained`]) is the production order; the
    /// others are differential references.
    pub search_order: SearchOrder,
    /// Background theory for constraint-aware decisions. `None` (the
    /// default) lets a schema with declared constraints activate the
    /// automatic [`ConstraintTheory`](crate::ConstraintTheory); an explicit
    /// theory overrides that — including the identity
    /// [`EmptyTheory`](crate::EmptyTheory), which disables theory
    /// processing outright. Explicit theories bypass the decision cache
    /// (see [`EngineConfig::decision_cache`]); the automatic theory does
    /// not, because schema fingerprints include the constraint text.
    pub theory: Option<Arc<dyn crate::theory::Theory>>,
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("threads", &self.threads)
            .field(
                "cache",
                &self.cache.as_ref().map(|_| "Some(<dyn DecisionCache>)"),
            )
            .field("iso_fast_path", &self.iso_fast_path)
            .field("budget", &self.budget)
            .field("prune", &self.prune)
            .field("search_order", &self.search_order)
            .field("theory", &self.theory)
            .finish()
    }
}

impl EngineConfig {
    /// The default engine with a one-thread pool.
    pub fn serial() -> EngineConfig {
        EngineConfig {
            threads: 1,
            cache: None,
            iso_fast_path: true,
            budget: Budget::unlimited(),
            prune: true,
            search_order: SearchOrder::MostConstrained,
            theory: None,
        }
    }

    /// The default engine with an explicit pool size (at least one).
    pub fn with_threads(threads: usize) -> EngineConfig {
        EngineConfig {
            threads: threads.max(1),
            ..EngineConfig::serial()
        }
    }

    /// This configuration with a decision cache installed.
    pub fn with_cache(mut self, cache: Arc<dyn DecisionCache>) -> EngineConfig {
        self.cache = Some(cache);
        self
    }

    /// This configuration with the isomorphism fast path disabled (used by
    /// regression tests to show the fast path is invisible).
    pub fn without_iso_fast_path(mut self) -> EngineConfig {
        self.iso_fast_path = false;
        self
    }

    /// This configuration with a request budget installed. Clones of the
    /// configuration share the budget's counter, so one request's nested
    /// checks draw on one pool.
    pub fn with_budget(mut self, budget: Budget) -> EngineConfig {
        self.budget = budget;
        self
    }

    /// This configuration with sub-lattice pruning and warm starts disabled
    /// — the exhaustive walk that evaluates every branch. Used by
    /// differential tests and by `bench_prune` as the baseline.
    pub fn without_pruning(mut self) -> EngineConfig {
        self.prune = false;
        self
    }

    /// This configuration with an explicit homomorphism [`SearchOrder`].
    pub fn with_search_order(mut self, order: SearchOrder) -> EngineConfig {
        self.search_order = order;
        self
    }

    /// This configuration with an explicit background [`Theory`](crate::Theory)
    /// installed. See the [`theory`](EngineConfig::theory) field for how an
    /// explicit theory interacts with schema constraints and the cache.
    pub fn with_theory(mut self, theory: Arc<dyn crate::theory::Theory>) -> EngineConfig {
        self.theory = Some(theory);
        self
    }

    /// The decision cache the engine may consult for this configuration.
    ///
    /// An explicitly installed theory — even the identity — suppresses the
    /// cache: the cache's keys identify (schema, queries) but not the
    /// rewriting in force, so a verdict computed under an explicit theory
    /// must never be replayed for a plain decision or vice versa. The
    /// automatic constraint theory needs no such guard because it is a pure
    /// function of the schema, whose fingerprint keys already include the
    /// constraint text.
    pub(crate) fn decision_cache(&self) -> Option<&Arc<dyn DecisionCache>> {
        if self.theory.is_some() {
            None
        } else {
            self.cache.as_ref()
        }
    }
}

/// The serial engine. Nothing in this crate reads the environment, so a
/// default-built engine depends on no environment variable.
impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig::serial()
    }
}

/// Cumulative branch-engine instrumentation for one containment target,
/// surfaced through [`PreparedQueryStats`](crate::PreparedQueryStats).
/// Counters accumulate across every run sharing the target's
/// [`BranchBase`], in the same spirit as the artifact build counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Branches in every plan built over the target: Σ `2^|T(S)|` over the
    /// consistent equality augmentations.
    pub branches_planned: u64,
    /// Branches settled by a warm-start check or a homomorphism search.
    pub branches_evaluated: u64,
    /// Branches decided by the monotone sub-lattice argument, with no
    /// per-branch evaluation at all.
    pub branches_skipped: u64,
    /// Evaluated branches settled by reusing the previous branch's witness
    /// (an O(1) danger-bit check instead of a search).
    pub warm_start_hits: u64,
    /// Homomorphism searches run.
    pub mapping_searches: u64,
    /// Candidate assignments retracted across those searches.
    pub mapping_backtracks: u64,
}

/// The atomic collector behind [`BranchStats`], shared by every walk over
/// one target — possibly from several request threads at once.
#[derive(Debug, Default)]
pub(crate) struct BranchCounters {
    planned: AtomicU64,
    evaluated: AtomicU64,
    skipped: AtomicU64,
    warm_hits: AtomicU64,
    pub(crate) mapping: MappingCounters,
}

impl BranchCounters {
    pub(crate) fn snapshot(&self) -> BranchStats {
        BranchStats {
            branches_planned: self.planned.load(Ordering::Relaxed),
            branches_evaluated: self.evaluated.load(Ordering::Relaxed),
            branches_skipped: self.skipped.load(Ordering::Relaxed),
            warm_start_hits: self.warm_hits.load(Ordering::Relaxed),
            mapping_searches: self.mapping.searches.load(Ordering::Relaxed),
            mapping_backtracks: self.mapping.backtracks.load(Ordering::Relaxed),
        }
    }
}

/// The derived state of a stripped containment target `Q₁` that every
/// Theorem 3.1 run over it shares: the base [`QueryAnalysis`] (each
/// `S`-augmentation's analysis extends it incrementally), the
/// [`TargetIndexes`] of the unaugmented query (reused verbatim by the empty
/// augmentation's branch block), and the instrumentation counters. A
/// [`PreparedQuery`](crate::PreparedQuery) memoizes one of these so repeated
/// decisions rebuild neither.
pub(crate) struct BranchBase {
    /// Analysis of the stripped `Q₁`.
    pub(crate) analysis: QueryAnalysis,
    /// Derivability indexes of the stripped, unaugmented `Q₁`.
    pub(crate) indexes: TargetIndexes,
    /// Shared instrumentation, accumulated by every plan over this target.
    pub(crate) counters: Arc<BranchCounters>,
}

impl BranchBase {
    /// Derive the shared base state for a stripped terminal `q1`.
    pub(crate) fn build(q1: &Query, classes1: &[ClassId]) -> BranchBase {
        let analysis = QueryAnalysis::of(q1);
        let indexes = TargetIndexes::build(q1, classes1, &analysis);
        BranchBase {
            analysis,
            indexes,
            counters: Arc::new(BranchCounters::default()),
        }
    }
}

/// One consistent equality augmentation `S` with everything its `2^|T(S)|`
/// membership-subset branches share.
struct SBranch {
    /// The augmentation atoms `S` (equalities between representative
    /// variables).
    s_atoms: Vec<Atom>,
    /// `Q₁&S`.
    q1s: Query,
    /// Analysis of `Q₁&S`, extended incrementally from the base analysis.
    analysis: QueryAnalysis,
    /// Derivability indexes over `Q₁&S`.
    indexes: TargetIndexes,
    /// The satisfiable membership augmentations `T(S)`, bit `i` of a branch
    /// mask selecting `w_candidates[i]`.
    w_candidates: Vec<Atom>,
    /// The membership key of each candidate under `analysis`, precomputed so
    /// a branch context is ready after `|W|` hash-set inserts.
    w_keys: Vec<(usize, usize, AttrId)>,
}

/// The explicit branch space of one Theorem 3.1 containment check
/// `Q₁ ⊆ Q₂`: every consistent `(S, W)` pair, numbered `0..total`, with the
/// per-`S` state shared across each block.
pub(crate) struct BranchPlan<'a> {
    schema: &'a Schema,
    /// Terminal class of each `Q₁` variable (augmentations add no
    /// variables, so one vector serves every branch).
    classes1: &'a [ClassId],
    sbranches: Vec<SBranch>,
    /// Instrumentation shared with the [`BranchBase`] the plan was built
    /// from.
    counters: Arc<BranchCounters>,
}

impl<'a> BranchPlan<'a> {
    /// Enumerate the branch space for a satisfiable, non-range-stripped
    /// terminal `q1` whose shared base state (`base`) the caller has already
    /// derived — or memoized on a prepared query. `enum_s` / `enum_w` select
    /// which dimensions the chosen strategy actually quantifies over
    /// (Corollaries 3.2–3.4 fix one or both to the trivial choice). Charges
    /// `budget` one unit per candidate `S` block, so partition-count
    /// blowups trip the budget during planning rather than after it.
    pub(crate) fn build(
        schema: &'a Schema,
        q1: &'a Query,
        classes1: &'a [ClassId],
        base: &BranchBase,
        enum_s: bool,
        enum_w: bool,
        budget: &Budget,
    ) -> Result<BranchPlan<'a>, CoreError> {
        let s_choices = if enum_s {
            equality_augmentations(q1, classes1, &base.analysis)?
        } else {
            vec![Vec::new()]
        };

        let mut sbranches: Vec<SBranch> = Vec::new();
        let mut total: u64 = 0;
        for s_atoms in s_choices {
            budget.charge(1)?;
            let q1s = q1.with_extra_atoms(s_atoms.clone());
            let analysis = if s_atoms.is_empty() {
                base.analysis.clone()
            } else {
                base.analysis.extended(&s_atoms)
            };
            if !satisfiability::check(schema, &q1s, classes1, &analysis).is_satisfiable() {
                continue; // inconsistent augmentation: vacuous branch block
            }
            let w_candidates = if enum_w {
                membership_candidates(schema, &q1s, classes1, &analysis)
            } else {
                Vec::new()
            };
            // A branch mask is a u64, so 64 or more candidates cannot even
            // be indexed — report the real candidate count instead of the
            // saturated subset count a checked shift would produce.
            if w_candidates.len() > 63 {
                return Err(CoreError::BranchSpaceOverflow {
                    candidates: w_candidates.len(),
                    limit: MAX_BRANCHES,
                });
            }
            let subsets = 1u64 << w_candidates.len();
            let new_total = total.saturating_add(subsets);
            if new_total > MAX_BRANCHES {
                return Err(CoreError::BranchLimit {
                    branches: new_total,
                    limit: MAX_BRANCHES,
                });
            }
            let graph = analysis.graph();
            let w_keys = w_candidates
                .iter()
                .map(|a| match a {
                    Atom::Member(x, t, attr) => (
                        graph.class_id(Term::Var(*x)).expect("var node"),
                        graph.class_id(Term::Var(*t)).expect("var node"),
                        *attr,
                    ),
                    _ => unreachable!("membership candidates are Member atoms"),
                })
                .collect();
            let indexes = if s_atoms.is_empty() {
                base.indexes.clone()
            } else {
                TargetIndexes::build(&q1s, classes1, &analysis)
            };
            sbranches.push(SBranch {
                s_atoms,
                q1s,
                analysis,
                indexes,
                w_candidates,
                w_keys,
            });
            base.counters.planned.fetch_add(subsets, Ordering::Relaxed);
            total = new_total;
        }
        Ok(BranchPlan {
            schema,
            classes1,
            sbranches,
            counters: base.counters.clone(),
        })
    }

    /// The augmentation atoms `S ∪ W` of one branch of a block, in the
    /// order the witness certificates report them.
    fn augmentation_in(sb: &SBranch, mask: u64) -> Vec<Atom> {
        let mut atoms = sb.s_atoms.clone();
        atoms.extend(
            sb.w_candidates
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, a)| a.clone()),
        );
        atoms
    }

    /// Evaluate one branch of a block: does a non-contradictory mapping
    /// `μ : q2 → Q₁&S&W` exist?
    fn eval_mask(
        &self,
        sb: &SBranch,
        mask: u64,
        q2: &Query,
        classes2: &[ClassId],
        cfg: &EngineConfig,
    ) -> Option<Vec<VarId>> {
        // Membership atoms merge no classes and add no typing obligations
        // beyond what the candidate filter already checked, so Q₁&S&W shares
        // Q₁&S's analysis and satisfiability. Recheck that from scratch in
        // test builds.
        #[cfg(debug_assertions)]
        {
            let q1sw = sb.q1s.with_extra_atoms(
                sb.w_candidates
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, a)| a.clone()),
            );
            debug_assert!(
                satisfiability::check(self.schema, &q1sw, self.classes1, &QueryAnalysis::of(&q1sw))
                    .is_satisfiable(),
                "candidate-filtered membership augmentation must stay satisfiable"
            );
        }
        let mut ctx = TargetCtx::new(self.schema, self.classes1, &sb.analysis, &sb.indexes);
        for (i, &key) in sb.w_keys.iter().enumerate() {
            if mask >> i & 1 == 1 {
                ctx.add_member_key(key);
            }
        }
        let goal = MappingGoal {
            source: q2,
            source_classes: classes2,
            free_anchor: sb.q1s.free_var(),
            avoid_in_image: None,
        };
        find_mapping_with(&ctx, &goal, cfg.search_order, Some(&self.counters.mapping))
    }

    /// The candidate bits of the block whose membership key coincides with
    /// a non-membership image of the witness — the only bits whose addition
    /// can invalidate it. Every other atom check is monotone in `W`:
    /// equalities, ranges, and inequalities never consult the membership
    /// set, and derivable memberships only grow along supersets.
    fn danger_bits(sb: &SBranch, q2: &Query, assignment: &[VarId]) -> u64 {
        let graph = sb.analysis.graph();
        let root = |v: VarId| graph.class_id(Term::Var(v)).expect("var node");
        let mut bits = 0u64;
        for atom in q2.atoms() {
            if let Atom::NonMember(x, y, a) = atom {
                let key = (root(assignment[x.index()]), root(assignment[y.index()]), *a);
                for (i, &k) in sb.w_keys.iter().enumerate() {
                    if k == key {
                        bits |= 1 << i;
                    }
                }
            }
        }
        bits
    }

    /// Walk one `S`-block in mask order.
    ///
    /// With pruning on, a witness whose danger bits all lie inside its own
    /// mask is *stable*: it stays valid at every superset mask (see
    /// [`Self::danger_bits`]), so those branches are decided by an O(1)
    /// subset test against the stable list — which is automatically an
    /// antichain in walk order, since any superset of an earlier stable
    /// mask would itself have been skipped. The witness reported for a
    /// skipped branch is the first stable witness covering it, making the
    /// choice deterministic. Budget: one unit per evaluated branch always;
    /// in certificate mode skipped branches also charge one unit each
    /// (their witness is still materialized), while in verdict mode they
    /// charge one unit per [`SKIP_CHARGE_STRIDE`] so pruned-away work costs
    /// what it saves.
    fn walk_block(
        &self,
        sb: &SBranch,
        q2: &Query,
        classes2: &[ClassId],
        cfg: &EngineConfig,
        collect: bool,
    ) -> Result<BlockResult, CoreError> {
        let t = sb.w_candidates.len();
        let nmasks = 1u64 << t; // t <= 63, enforced at plan build
        let universe = nmasks - 1;
        let counters = &*self.counters;
        let mut witnesses: Vec<MappingWitness> = Vec::new();
        // Evaluated witnesses with their danger bits.
        let mut bank: Vec<(Vec<VarId>, u64)> = Vec::new();
        // Stable `(mask, bank index)` entries, in walk order.
        let mut stable: Vec<(u64, usize)> = Vec::new();
        // The last evaluated branch, for the warm-start check.
        let mut prev: Option<(u64, usize)> = None;
        let mut unpaid_skips = 0u64;

        let mut mask = 0u64;
        while mask < nmasks {
            if cfg.prune {
                if let Some(&(smask, widx)) = stable.iter().find(|&&(s, _)| mask & s == s) {
                    if !collect {
                        if smask == 0 {
                            // A stable empty subset covers every mask: the
                            // rest of the block is decided wholesale.
                            counters.skipped.fetch_add(nmasks - mask, Ordering::Relaxed);
                            cfg.budget.charge(1)?;
                            return Ok(BlockResult::Holds(witnesses));
                        }
                        counters.skipped.fetch_add(1, Ordering::Relaxed);
                        unpaid_skips += 1;
                        if unpaid_skips >= SKIP_CHARGE_STRIDE {
                            cfg.budget.charge(1)?;
                            unpaid_skips = 0;
                        }
                    } else {
                        counters.skipped.fetch_add(1, Ordering::Relaxed);
                        cfg.budget.charge(1)?;
                        witnesses.push(MappingWitness {
                            augmentation: Self::augmentation_in(sb, mask),
                            assignment: bank[widx].0.clone(),
                        });
                    }
                    mask += 1;
                    continue;
                }
            }
            cfg.budget.charge(1)?;
            counters.evaluated.fetch_add(1, Ordering::Relaxed);
            // Warm start: the previous witness transfers whenever its mask
            // is a subset of this one and no added bit is dangerous.
            let mut reused = None;
            if cfg.prune {
                if let Some((pmask, pidx)) = prev {
                    if pmask & !mask == 0 && bank[pidx].1 & (mask & !pmask) == 0 {
                        counters.warm_hits.fetch_add(1, Ordering::Relaxed);
                        reused = Some(pidx);
                    }
                }
            }
            let widx = match reused {
                Some(i) => i,
                None => match self.eval_mask(sb, mask, q2, classes2, cfg) {
                    Some(assignment) => {
                        let danger = Self::danger_bits(sb, q2, &assignment);
                        bank.push((assignment, danger));
                        bank.len() - 1
                    }
                    None => return Ok(BlockResult::Fails { mask }),
                },
            };
            if cfg.prune && bank[widx].1 & !mask & universe == 0 {
                stable.push((mask, widx));
            }
            prev = Some((mask, widx));
            if collect {
                witnesses.push(MappingWitness {
                    augmentation: Self::augmentation_in(sb, mask),
                    assignment: bank[widx].0.clone(),
                });
            }
            mask += 1;
        }
        Ok(BlockResult::Holds(witnesses))
    }

    /// Decide containment over the whole branch space, walking the blocks
    /// in index order (iterating the blocks directly keeps the per-branch
    /// scheduling cost O(1)). `collect` selects certificate mode (one
    /// witness per branch, as `decide`/`explain` report) over verdict mode
    /// (no witness materialization — the boolean entry points drop them
    /// anyway, and wholesale block skips then cost O(1)).
    ///
    /// A tripped budget surfaces as [`CoreError::Timeout`]. The walk stops
    /// at the first refuted branch, so a refutation reached within the
    /// budget is returned as `Fails` — conclusive no matter how much of the
    /// space went unexplored — while `Holds` needs the complete walk.
    pub(crate) fn run(
        &self,
        q2: &Query,
        classes2: &[ClassId],
        cfg: &EngineConfig,
        collect: bool,
    ) -> Result<Containment, CoreError> {
        let mut witnesses: Vec<MappingWitness> = Vec::new();
        for sb in &self.sbranches {
            match self.walk_block(sb, q2, classes2, cfg, collect)? {
                BlockResult::Fails { mask } => {
                    return Ok(Containment::Fails {
                        augmentation: Self::augmentation_in(sb, mask),
                    })
                }
                BlockResult::Holds(ws) => witnesses.extend(ws),
            }
        }
        Ok(Containment::Holds(witnesses))
    }
}

/// In verdict mode, one budget unit buys this many sub-lattice skips: the
/// per-skip cost is a bitwise subset test, so charging skips like
/// evaluations would make budgets trip on exactly the work pruning
/// eliminated — while charging nothing would let a huge pruned walk ignore
/// its deadline entirely.
const SKIP_CHARGE_STRIDE: u64 = 1024;

/// Outcome of walking one `S`-block.
enum BlockResult {
    /// Every branch of the block has a witness (listed only in certificate
    /// mode).
    Holds(Vec<MappingWitness>),
    /// The first refuted mask within the block.
    Fails { mask: u64 },
}

/// Enumerate the equality-augmentation candidates `S` of Theorem 3.1: one
/// per partition of `q1`'s variable equivalence classes, merging only blocks
/// whose variables share a terminal class (merging across classes is always
/// inconsistent, so those partitions are skipped at the source). Errors with
/// [`CoreError::BranchLimit`] once the partition count alone exceeds
/// [`MAX_BRANCHES`].
fn equality_augmentations(
    q1: &Query,
    classes: &[ClassId],
    analysis: &QueryAnalysis,
) -> Result<Vec<Vec<Atom>>, CoreError> {
    let graph = analysis.graph();
    // Current variable blocks: representative variable per equivalence class.
    let mut reps: Vec<VarId> = Vec::new();
    let mut seen_roots: HashSet<usize> = HashSet::new();
    for v in q1.vars() {
        let r = graph.class_id(Term::Var(v)).expect("var node");
        if seen_roots.insert(r) {
            reps.push(v);
        }
    }
    let block_class: Vec<ClassId> = reps.iter().map(|v| classes[v.index()]).collect();
    let k = reps.len();

    // Restricted-growth enumeration of partitions of the k blocks, where a
    // block may only join a group of the same terminal class.
    let mut assignment = vec![0usize; k];
    fn recurse(
        i: usize,
        groups: &mut Vec<ClassId>,
        assignment: &mut [usize],
        block_class: &[ClassId],
        out: &mut Vec<Vec<usize>>,
    ) -> bool {
        if out.len() as u64 > MAX_BRANCHES {
            return false;
        }
        if i == assignment.len() {
            out.push(assignment.to_vec());
            return true;
        }
        for g in 0..groups.len() {
            if groups[g] == block_class[i] {
                assignment[i] = g;
                if !recurse(i + 1, groups, assignment, block_class, out) {
                    return false;
                }
            }
        }
        groups.push(block_class[i]);
        assignment[i] = groups.len() - 1;
        let ok = recurse(i + 1, groups, assignment, block_class, out);
        groups.pop();
        ok
    }
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    if !recurse(
        0,
        &mut Vec::new(),
        &mut assignment,
        &block_class,
        &mut partitions,
    ) {
        return Err(CoreError::BranchLimit {
            branches: partitions.len() as u64,
            limit: MAX_BRANCHES,
        });
    }

    let mut out: Vec<Vec<Atom>> = Vec::with_capacity(partitions.len());
    for p in partitions {
        let mut atoms: Vec<Atom> = Vec::new();
        let mut first_of_group: Vec<Option<VarId>> = vec![None; k];
        for (block, &g) in p.iter().enumerate() {
            match first_of_group[g] {
                None => first_of_group[g] = Some(reps[block]),
                Some(first) => atoms.push(Atom::Eq(Term::Var(first), Term::Var(reps[block]))),
            }
        }
        out.push(atoms);
    }
    Ok(out)
}

/// The candidate membership augmentations `T` of Theorem 3.1 for `Q₁&S`:
/// atoms `x ∈ t.P` with `x` a variable, `t.P` a set term, the addition
/// satisfiable, and the membership not already derivable (adding a derivable
/// membership changes nothing, so it is pruned to halve the subset space).
fn membership_candidates(
    schema: &Schema,
    q1s: &Query,
    classes: &[ClassId],
    analysis: &QueryAnalysis,
) -> Vec<Atom> {
    // `Q₁&S` has the same variables as `Q₁`, so the caller's class vector
    // stays valid.
    debug_assert_eq!(classes.len(), q1s.var_count());
    let graph = analysis.graph();
    let var_root = |v: VarId| graph.class_id(Term::Var(v)).expect("var node");

    // One representative set term per equivalence class of set terms.
    let mut set_reps: Vec<(VarId, AttrId)> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    for &t in graph.terms() {
        if let Term::Attr(v, a) = t {
            if analysis.is_set_term(t) && seen.insert(graph.class_id(t).expect("node")) {
                set_reps.push((v, a));
            }
        }
    }

    // Index the memberships Q₁&S derives and the non-memberships it asserts,
    // by equivalence-class key, so each candidate is two hash probes instead
    // of two scans of the atom list.
    let mut derived: HashSet<(usize, usize, AttrId)> = HashSet::new();
    let mut excluded: HashSet<(usize, usize, AttrId)> = HashSet::new();
    for atom in q1s.atoms() {
        match atom {
            Atom::Member(s, u, b) => {
                derived.insert((var_root(*s), var_root(*u), *b));
            }
            Atom::NonMember(s, u, b) => {
                excluded.insert((var_root(*s), var_root(*u), *b));
            }
            _ => {}
        }
    }

    let mut out: Vec<Atom> = Vec::new();
    for &(t, a) in &set_reps {
        let Some(AttrType::SetOf(d)) = schema.attr_type(classes[t.index()], a) else {
            continue; // ill-typed set term: Q₁&S was unsatisfiable anyway
        };
        let t_root = var_root(t);
        for x in q1s.vars() {
            if !schema.terminal_descendants(d).contains(&classes[x.index()]) {
                continue; // x can never be a member: not in T
            }
            let key = (var_root(x), t_root, a);
            if derived.contains(&key) || excluded.contains(&key) {
                continue;
            }
            out.push(Atom::Member(x, t, a));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Cost-based dispatch: exact structural facts about the branch space,
// computable from the prepared analysis before any block is materialized.
// `decide_sides` uses them to downgrade a strategy's enumeration dimensions
// when they are provably trivial, and to reject provably-over-limit spaces
// before planning starts.

/// Does the target have any set term? Without one, `T(S)` is empty for
/// every `S`, so quantifying over `W` subsets enumerates exactly one empty
/// subset per block — the `W` dimension is trivial.
pub(crate) fn has_set_terms(analysis: &QueryAnalysis) -> bool {
    analysis
        .graph()
        .terms()
        .iter()
        .any(|&t| analysis.is_set_term(t))
}

/// Can any equality augmentation merge anything? Only if some terminal
/// class holds at least two distinct variable equivalence blocks; otherwise
/// the identity partition is the single consistent `S` and the dimension is
/// trivial.
pub(crate) fn has_mergeable_blocks(
    q1: &Query,
    classes: &[ClassId],
    analysis: &QueryAnalysis,
) -> bool {
    let graph = analysis.graph();
    let mut first_root: HashMap<ClassId, usize> = HashMap::new();
    for v in q1.vars() {
        let r = graph.class_id(Term::Var(v)).expect("var node");
        match first_root.entry(classes[v.index()]) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(r);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != r {
                    return true;
                }
            }
        }
    }
    false
}

/// The membership-candidate count of the *unaugmented* target. The empty
/// partition is always a consistent `S` (the target is satisfiable — the
/// caller checked), so `2^floor` is an exact lower bound on the full branch
/// total and the caller can reject over-limit spaces before planning.
pub(crate) fn w_candidate_floor(
    schema: &Schema,
    q1: &Query,
    classes1: &[ClassId],
    base: &BranchBase,
) -> usize {
    membership_candidates(schema, q1, classes1, &base.analysis).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_serial_and_ignores_the_environment() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.threads, 1);
        assert!(cfg.cache.is_none());
        assert!(cfg.iso_fast_path);
        assert!(cfg.budget.is_unlimited());
        assert!(cfg.prune, "pruning is always on in production");
        assert_eq!(cfg.search_order, SearchOrder::MostConstrained);
        assert!(!EngineConfig::serial().without_pruning().prune);
        assert_eq!(
            EngineConfig::serial()
                .with_search_order(SearchOrder::Static)
                .search_order,
            SearchOrder::Static
        );
        assert_eq!(EngineConfig::with_threads(0).threads, 1);
        assert_eq!(EngineConfig::with_threads(4).threads, 4);
    }
}
