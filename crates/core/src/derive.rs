//! Derivability of positive atoms, contradiction of negative atoms, and the
//! search for non-contradictory variable mappings (§3.1).
//!
//! For a terminal conjunctive query `Q` with equality graph `E(Q)`:
//!
//! * `Q ⊢ x ∈ C` iff `x ∈ C` is an atom of `Q`;
//! * `Q ⊢ f(x) = g(y)` iff there are `s ∈ [x]`, `t ∈ [y]` with `f(s)`,
//!   `g(t)` object terms of `Q` and `f(s) ∈ [g(t)]`;
//! * `Q ⊢ x ∈ y.A` iff there are `s ∈ [x]`, `t ∈ [y]` with `s ∈ t.A` an
//!   atom of `Q`;
//! * `Q` does not contradict `f(x) ≠ g(y)` iff there are `s ∈ [x]`,
//!   `t ∈ [y]` with `f(s)`, `g(t)` object terms and `Q & {f(s) ≠ g(t)}`
//!   satisfiable — by the satisfiability procedure this reduces to the two
//!   terms lying in *different* equivalence classes;
//! * `Q` does not contradict `x ∉ y.A` iff some `t ∈ [y]` has `t.A` a set
//!   term of `Q` and `Q & {x ∉ t.A}` is satisfiable — which reduces to the
//!   absence of a derivable membership `x ∈ t.A`.
//!
//! A variable mapping `μ : Q₂ → Q₁` is **non-contradictory** when `Q₁`
//! derives `μ(A)` for every positive atom `A` of `Q₂` and does not
//! contradict `μ(A)` for every inequality/non-membership atom. Because the
//! congruence closure of `E(Q)` merges `s.A` across equated bases, every
//! derivability test above is a constant number of class lookups.

use crate::error::CoreError;
use crate::satisfiability::var_classes;
use oocq_query::{Atom, Query, QueryAnalysis, Term, VarId};
use oocq_schema::{AttrId, ClassId, Schema};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Derivability indexes over a target query, computed once and shared by
/// every [`TargetCtx`] built on the same (query, analysis) pair. The branch
/// engine builds one of these per `S`-augmentation and reuses it across all
/// `2^|W|` membership subsets of that augmentation. `Clone` lets a prepared
/// query hand its memoized base indexes to the empty-augmentation block
/// without a rebuild.
#[derive(Clone)]
pub(crate) struct TargetIndexes {
    /// Derived membership instances `(root[s], root[t], A)` for each atom
    /// `s ∈ t.A`.
    pub(crate) members: HashSet<(usize, usize, AttrId)>,
    /// For `(root of base-variable class, A)`: the class of the object term
    /// `s.A` (unique when present, by congruence).
    obj_attr_image: HashMap<(usize, AttrId), usize>,
    /// `(root of base-variable class, A)` pairs for which some `t.A` is a
    /// set term.
    set_attr_present: HashSet<(usize, AttrId)>,
    /// Variables grouped by terminal class, candidate pools for the search.
    by_class: HashMap<ClassId, Vec<VarId>>,
}

impl TargetIndexes {
    /// Build the indexes for `q` under the given analysis.
    pub(crate) fn build(q: &Query, classes: &[ClassId], analysis: &QueryAnalysis) -> TargetIndexes {
        let graph = analysis.graph();
        let var_root = |v: VarId| {
            graph
                .class_id(Term::Var(v))
                .expect("variable is always a node")
        };

        let mut members = HashSet::new();
        for a in q.atoms() {
            if let Atom::Member(x, y, attr) = a {
                members.insert((var_root(*x), var_root(*y), *attr));
            }
        }
        let mut obj_attr_image = HashMap::new();
        let mut set_attr_present = HashSet::new();
        for &t in graph.terms() {
            if let Term::Attr(v, a) = t {
                let key = (var_root(v), a);
                if analysis.is_object_term(t) {
                    obj_attr_image.insert(key, graph.class_id(t).unwrap());
                } else if analysis.is_set_term(t) {
                    set_attr_present.insert(key);
                }
            }
        }
        let mut by_class: HashMap<ClassId, Vec<VarId>> = HashMap::new();
        for v in q.vars() {
            by_class.entry(classes[v.index()]).or_default().push(v);
        }
        TargetIndexes {
            members,
            obj_attr_image,
            set_attr_present,
            by_class,
        }
    }
}

/// A containment target `Q₁` (possibly augmented) viewed through precomputed
/// indexes that answer derivability queries in O(1). Borrows all heavy state
/// (query, classes, analysis, indexes), so constructing one per augmentation
/// branch costs only a clone of the membership key set — which the branch
/// engine then extends in place with the branch's `W` atoms.
pub(crate) struct TargetCtx<'s> {
    pub(crate) schema: &'s Schema,
    /// Terminal class of each variable.
    pub(crate) classes: &'s [ClassId],
    pub(crate) analysis: &'s QueryAnalysis,
    shared: &'s TargetIndexes,
    /// Membership keys: `shared.members` plus any per-branch `W` additions.
    members: HashSet<(usize, usize, AttrId)>,
}

impl<'s> TargetCtx<'s> {
    /// View a terminal target query through prebuilt indexes.
    pub(crate) fn new(
        schema: &'s Schema,
        classes: &'s [ClassId],
        analysis: &'s QueryAnalysis,
        shared: &'s TargetIndexes,
    ) -> TargetCtx<'s> {
        TargetCtx {
            schema,
            classes,
            analysis,
            shared,
            members: shared.members.clone(),
        }
    }

    /// Record an additional derived membership `(root[x], root[t], A)` —
    /// used by the branch engine to fold a branch's `W` atoms into the
    /// index without re-scanning the query.
    pub(crate) fn add_member_key(&mut self, key: (usize, usize, AttrId)) {
        self.members.insert(key);
    }

    #[inline]
    fn var_root(&self, v: VarId) -> usize {
        self.analysis
            .graph()
            .class_id(Term::Var(v))
            .expect("variable is always a node")
    }

    /// The equivalence class of the object denoted by a (mapped) term, if
    /// the target has a matching object term.
    fn term_image(&self, t: Term) -> Option<usize> {
        match t {
            Term::Var(v) => Some(self.var_root(v)),
            Term::Attr(v, a) => self
                .shared
                .obj_attr_image
                .get(&(self.var_root(v), a))
                .copied(),
        }
    }

    /// `Q ⊢ μ(x) ∈ C`.
    pub(crate) fn derives_range(&self, v: VarId, c: ClassId) -> bool {
        self.classes[v.index()] == c
    }

    /// `Q ⊢ a = b` for mapped terms.
    pub(crate) fn derives_eq(&self, a: Term, b: Term) -> bool {
        match (self.term_image(a), self.term_image(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// `Q ⊢ x ∈ y.A` for mapped variables.
    pub(crate) fn derives_member(&self, x: VarId, y: VarId, a: AttrId) -> bool {
        self.members
            .contains(&(self.var_root(x), self.var_root(y), a))
    }

    /// Does `Q` *not* contradict `a ≠ b` for mapped terms?
    pub(crate) fn not_contradict_neq(&self, a: Term, b: Term) -> bool {
        match (self.term_image(a), self.term_image(b)) {
            (Some(x), Some(y)) => x != y,
            _ => false,
        }
    }

    /// Does `Q` *not* contradict `x ∉ y.A` for mapped variables?
    pub(crate) fn not_contradict_nonmember(&self, x: VarId, y: VarId, a: AttrId) -> bool {
        let key = (self.var_root(y), a);
        self.shared.set_attr_present.contains(&key) && !self.derives_member(x, y, a)
    }

    /// Does `Q` *not* contradict `x ∉ C₁ ∨ … ∨ Cₙ`? (Only used defensively;
    /// §2.5 strips non-range atoms from satisfiable queries.)
    pub(crate) fn not_contradict_nonrange(&self, v: VarId, cs: &[ClassId]) -> bool {
        !cs.iter()
            .any(|&c| self.schema.is_subclass(self.classes[v.index()], c))
    }

    /// Check one atom of the source query under a (partial) mapping whose
    /// entries for this atom's variables are all set.
    pub(crate) fn atom_holds(&self, atom: &Atom, map: &[VarId]) -> bool {
        let m = |v: VarId| map[v.index()];
        match atom {
            Atom::Range(v, cs) => cs.len() == 1 && self.derives_range(m(*v), cs[0]),
            Atom::Eq(a, b) => self.derives_eq(a.with_var(m(a.var())), b.with_var(m(b.var()))),
            Atom::Member(x, y, attr) => self.derives_member(m(*x), m(*y), *attr),
            Atom::Neq(a, b) => {
                self.not_contradict_neq(a.with_var(m(a.var())), b.with_var(m(b.var())))
            }
            Atom::NonMember(x, y, attr) => self.not_contradict_nonmember(m(*x), m(*y), *attr),
            Atom::NonRange(v, cs) => self.not_contradict_nonrange(m(*v), cs),
        }
    }

    /// Variables of the target in a given terminal class.
    pub(crate) fn vars_of_class(&self, c: ClassId) -> &[VarId] {
        self.shared
            .by_class
            .get(&c)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Are two target variables in the same equivalence class of `E(Q)`?
    pub(crate) fn same_var_class(&self, a: VarId, b: VarId) -> bool {
        self.var_root(a) == self.var_root(b)
    }
}

/// An owning bundle of everything a [`TargetCtx`] borrows, for callers (the
/// minimizers) that index one query at a time rather than sharing state
/// across branches.
pub(crate) struct TargetData {
    q: Query,
    classes: Vec<ClassId>,
    analysis: QueryAnalysis,
    indexes: TargetIndexes,
}

impl TargetData {
    /// Analyse and index a terminal target query.
    pub(crate) fn new(schema: &Schema, q: Query) -> Result<TargetData, CoreError> {
        let classes = var_classes(schema, &q)?;
        let analysis = QueryAnalysis::of(&q);
        let indexes = TargetIndexes::build(&q, &classes, &analysis);
        Ok(TargetData {
            q,
            classes,
            analysis,
            indexes,
        })
    }

    /// The indexed query.
    pub(crate) fn query(&self) -> &Query {
        &self.q
    }

    /// Borrow a [`TargetCtx`] view.
    pub(crate) fn ctx<'s>(&'s self, schema: &'s Schema) -> TargetCtx<'s> {
        TargetCtx::new(schema, &self.classes, &self.analysis, &self.indexes)
    }
}

/// Options for the mapping search.
pub(crate) struct MappingGoal<'a> {
    /// The source query `Q₂`.
    pub(crate) source: &'a Query,
    /// Terminal class of each source variable.
    pub(crate) source_classes: &'a [ClassId],
    /// The target variable class the mapped free variable must land in
    /// (condition (i): `τ(μ(t₂)) = τ(t₁)`).
    pub(crate) free_anchor: VarId,
    /// A target variable that must NOT appear in the image (used by
    /// minimization to search for non-surjective self-maps); `None` for
    /// plain containment.
    pub(crate) avoid_in_image: Option<VarId>,
}

/// Candidate-selection strategy for [`find_mapping_with`].
///
/// `MostConstrained` is the production order. `Static` is the historical
/// free-variable-first declaration-order search and `Scrambled` a
/// deterministically permuted variant of it; both are kept as differential
/// references — whether a non-contradictory mapping *exists* for a branch is
/// independent of the order the search tries variables in, so every order
/// must reach the same verdict on every branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchOrder {
    /// Dynamic most-constrained-first selection with forward checking:
    /// always extend the variable with the smallest live candidate pool,
    /// and filter pools through every atom that has exactly one unmapped
    /// variable left.
    #[default]
    MostConstrained,
    /// The free variable first, then declaration order; no propagation.
    Static,
    /// Declaration order deterministically permuted by the seed; no
    /// propagation. Differential-test reference only.
    Scrambled(u64),
}

/// Shared homomorphism-search counters, aggregated into
/// [`crate::branch::BranchStats`]. Atomic so decisions on several request
/// threads can share one prepared target's instance.
#[derive(Debug, Default)]
pub(crate) struct MappingCounters {
    /// Completed `find_mapping` searches.
    pub(crate) searches: AtomicU64,
    /// Candidate assignments retracted across those searches.
    pub(crate) backtracks: AtomicU64,
}

impl MappingCounters {
    fn record(&self, backtracks: u64) {
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.backtracks.fetch_add(backtracks, Ordering::Relaxed);
    }
}

/// Find a non-contradictory variable mapping `μ : source → target`
/// satisfying conditions (i) and (ii) of Theorem 3.1 (and optionally
/// avoiding a target variable in its image). Returns the mapping as a
/// vector indexed by source variable.
pub(crate) fn find_mapping(ctx: &TargetCtx<'_>, goal: &MappingGoal<'_>) -> Option<Vec<VarId>> {
    find_mapping_with(ctx, goal, SearchOrder::MostConstrained, None)
}

/// [`find_mapping`] under an explicit [`SearchOrder`], with optional search
/// counters.
pub(crate) fn find_mapping_with(
    ctx: &TargetCtx<'_>,
    goal: &MappingGoal<'_>,
    order: SearchOrder,
    counters: Option<&MappingCounters>,
) -> Option<Vec<VarId>> {
    match order {
        SearchOrder::MostConstrained => search_most_constrained(ctx, goal, counters),
        SearchOrder::Static => {
            let q2 = goal.source;
            let mut vars: Vec<VarId> = Vec::with_capacity(q2.var_count());
            vars.push(q2.free_var());
            vars.extend(q2.vars().filter(|&v| v != q2.free_var()));
            search_in_order(ctx, goal, vars, counters)
        }
        SearchOrder::Scrambled(seed) => {
            let q2 = goal.source;
            let mut vars: Vec<VarId> = q2.vars().collect();
            // Fisher–Yates with an inline xorshift so the permutation is a
            // pure function of the seed.
            let mut state = seed | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in (1..vars.len()).rev() {
                vars.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            search_in_order(ctx, goal, vars, counters)
        }
    }
}

/// The initial candidate pool for one source variable: the target variables
/// of its terminal class, minus `avoid_in_image`, with the free variable
/// further anchored to `[free_anchor]` (condition (i)).
fn initial_pool(ctx: &TargetCtx<'_>, goal: &MappingGoal<'_>, v: VarId) -> Vec<VarId> {
    ctx.vars_of_class(goal.source_classes[v.index()])
        .iter()
        .copied()
        .filter(|&w| {
            if Some(w) == goal.avoid_in_image {
                return false;
            }
            if v == goal.source.free_var() {
                ctx.same_var_class(w, goal.free_anchor)
            } else {
                true
            }
        })
        .collect()
}

/// Reference search: try variables in the fixed order given, checking each
/// atom as soon as its last variable is mapped. No propagation.
fn search_in_order(
    ctx: &TargetCtx<'_>,
    goal: &MappingGoal<'_>,
    order: Vec<VarId>,
    counters: Option<&MappingCounters>,
) -> Option<Vec<VarId>> {
    let q2 = goal.source;
    let n = q2.var_count();
    let mut map = vec![VarId::from_index(0); n];
    if n == 0 {
        if let Some(c) = counters {
            c.record(0);
        }
        return Some(map);
    }
    let mut position = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        position[v.index()] = i;
    }
    // Atoms become checkable once their last variable is mapped.
    let mut ready: Vec<Vec<&Atom>> = vec![Vec::new(); n];
    for a in q2.atoms() {
        let depth = a
            .vars()
            .iter()
            .map(|v| position[v.index()])
            .max()
            .unwrap_or(0);
        ready[depth].push(a);
    }
    let candidates: Vec<Vec<VarId>> = order.iter().map(|&v| initial_pool(ctx, goal, v)).collect();

    fn recurse(
        ctx: &TargetCtx<'_>,
        order: &[VarId],
        candidates: &[Vec<VarId>],
        ready: &[Vec<&Atom>],
        map: &mut [VarId],
        depth: usize,
        backtracks: &mut u64,
    ) -> bool {
        if depth == order.len() {
            return true;
        }
        let v = order[depth];
        for &w in &candidates[depth] {
            map[v.index()] = w;
            if ready[depth].iter().all(|a| ctx.atom_holds(a, map))
                && recurse(ctx, order, candidates, ready, map, depth + 1, backtracks)
            {
                return true;
            }
            *backtracks += 1;
        }
        false
    }
    let mut backtracks = 0u64;
    let found = recurse(
        ctx,
        &order,
        &candidates,
        &ready,
        &mut map,
        0,
        &mut backtracks,
    );
    if let Some(c) = counters {
        c.record(backtracks);
    }
    found.then_some(map)
}

/// A candidate still in its pool (pools mark removals with the depth they
/// were filtered at, so backtracking restores them in O(1) per entry).
const LIVE: u32 = u32::MAX;

/// Most-constrained-first search state. Pools keep their deterministic
/// construction order throughout — forward filtering only *marks* entries
/// removed — so candidate iteration order (and hence the witness found) is
/// a pure function of the goal, never of the filtering history.
struct Mcf<'a, 's> {
    ctx: &'a TargetCtx<'s>,
    atoms: Vec<&'a Atom>,
    /// Distinct variables of each atom.
    atom_vars: Vec<Vec<VarId>>,
    /// Atom indices touching each source variable.
    atoms_of: Vec<Vec<usize>>,
    /// Distinct not-yet-assigned variables per atom.
    unassigned_in: Vec<usize>,
    assigned: Vec<bool>,
    map: Vec<VarId>,
    pool: Vec<Vec<VarId>>,
    /// `LIVE`, or the depth at which forward filtering removed the entry.
    removed: Vec<Vec<u32>>,
    live: Vec<usize>,
    /// Per-depth `(var, pool position)` removals, for undo.
    trail: Vec<Vec<(u32, u32)>>,
    backtracks: u64,
}

impl Mcf<'_, '_> {
    /// The unassigned variable with the smallest live pool; ties broken by
    /// connectivity to already-assigned variables, then variable index —
    /// all deterministic.
    fn pick(&self) -> usize {
        let mut best = (usize::MAX, usize::MAX, usize::MAX);
        for v in 0..self.map.len() {
            if self.assigned[v] {
                continue;
            }
            let connected = self.atoms_of[v]
                .iter()
                .filter(|&&ai| self.unassigned_in[ai] < self.atom_vars[ai].len())
                .count();
            let key = (self.live[v], usize::MAX - connected, v);
            if key < best {
                best = key;
            }
        }
        best.2
    }

    /// Map `v ↦ w`: check every atom this completes, and forward-filter the
    /// pool of the single remaining variable of every atom this brings to
    /// one unassigned variable. Returns `false` on a contradiction or an
    /// emptied pool; effects stay recorded either way and are reverted by
    /// `undo`.
    fn assign(&mut self, v: usize, w: VarId, depth: usize) -> bool {
        self.map[v] = w;
        self.assigned[v] = true;
        for &ai in &self.atoms_of[v] {
            self.unassigned_in[ai] -= 1;
        }
        for i in 0..self.atoms_of[v].len() {
            let ai = self.atoms_of[v][i];
            match self.unassigned_in[ai] {
                0 if !self.ctx.atom_holds(self.atoms[ai], &self.map) => {
                    return false;
                }
                0 => {}
                1 => {
                    let u = self.atom_vars[ai]
                        .iter()
                        .find(|&&u| !self.assigned[u.index()])
                        .expect("an unassigned variable remains")
                        .index();
                    let saved = self.map[u];
                    for pos in 0..self.pool[u].len() {
                        if self.removed[u][pos] != LIVE {
                            continue;
                        }
                        self.map[u] = self.pool[u][pos];
                        if !self.ctx.atom_holds(self.atoms[ai], &self.map) {
                            self.removed[u][pos] = depth as u32;
                            self.trail[depth].push((u as u32, pos as u32));
                            self.live[u] -= 1;
                        }
                    }
                    self.map[u] = saved;
                    if self.live[u] == 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Revert one `assign` at the given depth.
    fn undo(&mut self, v: usize, depth: usize) {
        while let Some((u, pos)) = self.trail[depth].pop() {
            self.removed[u as usize][pos as usize] = LIVE;
            self.live[u as usize] += 1;
        }
        for &ai in &self.atoms_of[v] {
            self.unassigned_in[ai] += 1;
        }
        self.assigned[v] = false;
    }

    fn solve(&mut self, depth: usize) -> bool {
        if depth == self.map.len() {
            return true;
        }
        let v = self.pick();
        for pos in 0..self.pool[v].len() {
            if self.removed[v][pos] != LIVE {
                continue;
            }
            let w = self.pool[v][pos];
            if self.assign(v, w, depth) && self.solve(depth + 1) {
                return true;
            }
            self.undo(v, depth);
            self.backtracks += 1;
        }
        false
    }
}

/// Most-constrained-first search with forward checking. Finds a mapping iff
/// the reference searches do (the candidate space and the constraints are
/// identical; only the exploration order differs), but fails inconsistent
/// subtrees as soon as any pool empties instead of at the first atom check
/// that happens to observe the conflict.
fn search_most_constrained(
    ctx: &TargetCtx<'_>,
    goal: &MappingGoal<'_>,
    counters: Option<&MappingCounters>,
) -> Option<Vec<VarId>> {
    let q2 = goal.source;
    let n = q2.var_count();
    let mut map = vec![VarId::from_index(0); n];
    if n == 0 {
        if let Some(c) = counters {
            c.record(0);
        }
        return Some(map);
    }
    let atoms: Vec<&Atom> = q2.atoms().iter().collect();
    let atom_vars: Vec<Vec<VarId>> = atoms
        .iter()
        .map(|a| {
            let mut vs: Vec<VarId> = Vec::new();
            for v in a.vars() {
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
            vs
        })
        .collect();
    let mut atoms_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ai, vs) in atom_vars.iter().enumerate() {
        for v in vs {
            atoms_of[v.index()].push(ai);
        }
    }
    let unassigned_in: Vec<usize> = atom_vars.iter().map(Vec::len).collect();
    let mut pool: Vec<Vec<VarId>> = q2.vars().map(|v| initial_pool(ctx, goal, v)).collect();
    // Single-variable atoms constrain their pool up front (a unary filter
    // subsumes checking the atom at assignment time, but the later check is
    // kept for uniformity — it always passes).
    for (ai, a) in atoms.iter().enumerate() {
        if let [v] = atom_vars[ai][..] {
            pool[v.index()].retain(|&w| {
                map[v.index()] = w;
                ctx.atom_holds(a, &map)
            });
        }
    }
    let live: Vec<usize> = pool.iter().map(Vec::len).collect();
    if live.contains(&0) {
        if let Some(c) = counters {
            c.record(0);
        }
        return None;
    }
    let removed: Vec<Vec<u32>> = pool.iter().map(|p| vec![LIVE; p.len()]).collect();
    let mut s = Mcf {
        ctx,
        atoms,
        atom_vars,
        atoms_of,
        unassigned_in,
        assigned: vec![false; n],
        map,
        pool,
        removed,
        live,
        trail: vec![Vec::new(); n],
        backtracks: 0,
    };
    let found = s.solve(0);
    if let Some(c) = counters {
        c.record(s.backtracks);
    }
    found.then_some(s.map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocq_query::QueryBuilder;
    use oocq_schema::samples;

    /// Example 3.1's Q₁ indexed as a target.
    fn example_31_data(s: &Schema) -> TargetData {
        let c = s.class_id("C").unwrap();
        let d = s.class_id("D").unwrap();
        let a = s.attr_id("A").unwrap();
        let bb = s.attr_id("B").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("z");
        b.range(x, [c]).range(y, [c]).range(z, [d]);
        b.eq_attr(z, y, a);
        b.member(z, y, bb);
        b.eq_vars(x, y);
        TargetData::new(s, b.build()).unwrap()
    }

    #[test]
    fn derives_equality_through_congruent_base() {
        // Q₁ ⊢ z = x.A even though the atom says z = y.A, because x = y.
        let s = samples::example_31();
        let data = example_31_data(&s);
        let ctx = data.ctx(&s);
        let a = s.attr_id("A").unwrap();
        let x = VarId::from_index(0);
        let z = VarId::from_index(2);
        assert!(ctx.derives_eq(Term::Var(z), Term::Attr(x, a)));
        // But not z = x.B (B is a set term).
        let bb = s.attr_id("B").unwrap();
        assert!(!ctx.derives_eq(Term::Var(z), Term::Attr(x, bb)));
    }

    #[test]
    fn derives_membership_through_equalities() {
        let s = samples::example_31();
        let data = example_31_data(&s);
        let ctx = data.ctx(&s);
        let bb = s.attr_id("B").unwrap();
        let x = VarId::from_index(0);
        let z = VarId::from_index(2);
        // Atom is z ∈ y.B; x = y makes z ∈ x.B derivable.
        assert!(ctx.derives_member(z, x, bb));
        assert!(!ctx.derives_member(x, x, bb));
    }

    #[test]
    fn non_contradiction_of_inequalities() {
        let s = samples::example_31();
        let data = example_31_data(&s);
        let ctx = data.ctx(&s);
        let x = VarId::from_index(0);
        let y = VarId::from_index(1);
        let z = VarId::from_index(2);
        // x = y: inequality x ≠ y IS contradicted.
        assert!(!ctx.not_contradict_neq(Term::Var(x), Term::Var(y)));
        // x vs z: fine.
        assert!(ctx.not_contradict_neq(Term::Var(x), Term::Var(z)));
    }

    #[test]
    fn non_contradiction_of_non_membership() {
        let s = samples::example_31();
        let data = example_31_data(&s);
        let ctx = data.ctx(&s);
        let bb = s.attr_id("B").unwrap();
        let a = s.attr_id("A").unwrap();
        let x = VarId::from_index(0);
        let z = VarId::from_index(2);
        // z ∈ y.B is an atom (and x = y): z ∉ x.B is contradicted.
        assert!(!ctx.not_contradict_nonmember(z, x, bb));
        // x ∉ x.B: x.B is a set term (via x = y) and x ∈ x.B not derivable.
        assert!(ctx.not_contradict_nonmember(x, x, bb));
        // x ∉ x.A: A is not a set term anywhere — contradicted (Ex. 3.3's
        // mechanism).
        assert!(!ctx.not_contradict_nonmember(x, x, a));
    }

    #[test]
    fn example_31_containment_mapping_exists() {
        // μ : Q₂ → Q₁ with μ(y) = x, μ(z) = z.
        let s = samples::example_31();
        let data = example_31_data(&s);
        let ctx = data.ctx(&s);
        let c = s.class_id("C").unwrap();
        let d = s.class_id("D").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("y");
        let y2 = b.free();
        let z2 = b.var("z");
        b.range(y2, [c]).range(z2, [d]);
        b.eq_attr(z2, y2, a);
        let q2 = b.build();
        let classes2 = var_classes(&s, &q2).unwrap();
        let goal = MappingGoal {
            source: &q2,
            source_classes: &classes2,
            free_anchor: data.query().free_var(),
            avoid_in_image: None,
        };
        let map = find_mapping(&ctx, &goal).expect("mapping must exist");
        // μ(y) must be x or y (the [x] class), μ(z) = z.
        assert!(map[y2.index()].index() <= 1);
        assert_eq!(map[z2.index()].index(), 2);
    }

    #[test]
    fn example_31_reverse_mapping_fails() {
        // No mapping from Q₁ into Q₂: z ∈ y.B has no derivation in Q₂.
        let s = samples::example_31();
        let c = s.class_id("C").unwrap();
        let d = s.class_id("D").unwrap();
        let a = s.attr_id("A").unwrap();
        let bb = s.attr_id("B").unwrap();

        let mut b = QueryBuilder::new("y");
        let y2 = b.free();
        let z2 = b.var("z");
        b.range(y2, [c]).range(z2, [d]);
        b.eq_attr(z2, y2, a);
        let data = TargetData::new(&s, b.build()).unwrap();
        let ctx = data.ctx(&s);

        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("z");
        b.range(x, [c]).range(y, [c]).range(z, [d]);
        b.eq_attr(z, y, a);
        b.member(z, y, bb);
        b.eq_vars(x, y);
        let q1 = b.build();
        let classes1 = var_classes(&s, &q1).unwrap();
        let goal = MappingGoal {
            source: &q1,
            source_classes: &classes1,
            free_anchor: data.query().free_var(),
            avoid_in_image: None,
        };
        assert!(find_mapping(&ctx, &goal).is_none());
    }

    #[test]
    fn avoid_in_image_constrains_search() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [c]).range(y, [c]);
        let q = b.build();
        let data = TargetData::new(&s, q.clone()).unwrap();
        let ctx = data.ctx(&s);
        let classes = var_classes(&s, &q).unwrap();
        // Self-map avoiding y exists (fold y onto x)...
        let goal = MappingGoal {
            source: &q,
            source_classes: &classes,
            free_anchor: x,
            avoid_in_image: Some(y),
        };
        let map = find_mapping(&ctx, &goal).unwrap();
        assert_eq!(map, vec![x, x]);
        // ... but avoiding x does not: the free variable must stay in [x].
        let goal = MappingGoal {
            source: &q,
            source_classes: &classes,
            free_anchor: x,
            avoid_in_image: Some(x),
        };
        assert!(find_mapping(&ctx, &goal).is_none());
    }
}
