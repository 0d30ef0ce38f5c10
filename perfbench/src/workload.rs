//! Workload generation: schema sessions, decision pairs checked against a
//! reference engine, and the seeded operation streams of the three
//! workloads. Everything here is a pure function of the seed.

use oocq_core::{Budget, CoreError, Engine, EngineConfig, PreparedQuery, PreparedSchema};
use oocq_gen::{
    constrained_schema, random_positive, random_schema, random_terminal_positive, ConstraintParams,
    QueryParams, Rng, SchemaParams, StdRng,
};
use oocq_parser::{parse_query, parse_schema};
use oocq_query::{Atom, CanonicalQuery, Query, QueryBuilder, VarId};
use oocq_schema::{AttrType, Schema};
use oocq_service::{escape, DEFAULT_CAPACITY, DEFAULT_DISK_CAPACITY};
use std::collections::{HashSet, VecDeque};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Work units (branches, subqueries, pairs) a reference decision may
/// spend. Pairs over it are dropped before the daemon sees them, so every
/// request the benchmark sends finishes.
const WORK_LIMIT: u64 = 2_000;
/// Canonical-labeling search nodes a generated query may need.
const CANON_LIMIT: u64 = 5_000;
/// Candidates generated per reference batch.
const BATCH: usize = 256;
/// Safety cap on input generation, whatever the targets ask for.
const GEN_CAP: Duration = Duration::from_secs(60);

/// Operations per second each workload's fresh-pair pool is sized for.
/// A run that outpaces its pool ends its window early and says so.
const COLD_RATE: f64 = 3_600.0;
const HOT_RATE: f64 = 40_000.0;
const SPILL_RATE: f64 = 32_000.0;

/// `hot_repeat`: pairs in the Zipf-ranked working set.
const HOT_SET: usize = 256;
/// `hot_repeat`: one operation in this many brings a new pair at rank 1.
const HOT_INJECT_EVERY: u64 = 64;
/// `hot_repeat`: untimed Zipf operations after the first pass.
const HOT_WARMUP: usize = 2_048;
/// `spill_restart`: pairs written to the log by the populating pass.
const SPILL_SET: usize = 2_048;
/// `spill_restart`: one operation in this many is a new pair.
const SPILL_NEW_EVERY: u64 = 5;
/// `spill_restart`: disk-tier capacity. New pairs append until the index
/// holds this many verdicts and are refused after; every run reaches the
/// same index size, so peak memory does not depend on how many operations
/// a run completed.
const SPILL_DISK: usize = 16_384;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ColdDecide,
    HotRepeat,
    SpillRestart,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "cold_decide" => Some(Kind::ColdDecide),
            "hot_repeat" => Some(Kind::HotRepeat),
            "spill_restart" => Some(Kind::SpillRestart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdDecide => "cold_decide",
            Kind::HotRepeat => "hot_repeat",
            Kind::SpillRestart => "spill_restart",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Contains,
    Equiv,
    Minimize,
}

impl Verb {
    fn word(self) -> &'static str {
        match self {
            Verb::Contains => "contains",
            Verb::Equiv => "equiv",
            Verb::Minimize => "minimize",
        }
    }
}

/// One named schema session, as the daemon will hold it.
pub struct Session {
    pub name: String,
    /// The schema DSL text sent with `schema <name> <text>` (unescaped).
    pub text: String,
    pub prepared: PreparedSchema,
    pub constrained: bool,
}

impl Session {
    pub fn schema(&self) -> &Schema {
        self.prepared.schema()
    }
}

/// One decision the benchmark can ask, with its reference answer.
pub struct Pair {
    pub session: usize,
    pub verb: Verb,
    /// Renamed-and-shuffled renderings of the two operands. Minimization is
    /// keyed by exact text, so a `minimize` pair has one rendering.
    pub texts: Vec<(String, String)>,
    /// The reference engine's response payload, escaped as on the wire.
    pub expect: String,
    /// Theorem 3.1 branches the reference decision planned.
    pub planned: u64,
}

/// One operation of a stream: which pair, in which rendering.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub pair: usize,
    pub variant: usize,
}

/// A workload's complete, seed-determined input.
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub sessions: Vec<Session>,
    pub pairs: Vec<Pair>,
    /// Pairs `0..working_set` are the recurring set; the rest are the pool
    /// of fresh pairs a stream draws in order.
    pub working_set: usize,
    /// Pipelined operations per connection.
    pub depth: usize,
    /// Tier-1 cache capacity the daemon is given (`OOCQ_CACHE_CAPACITY`).
    pub cache_capacity: usize,
    /// Disk-tier capacity (`OOCQ_CACHE_DISK_CAPACITY`).
    pub disk_capacity: usize,
    /// Generated candidates the reference rejected (parse error or over
    /// [`WORK_LIMIT`]).
    pub dropped: usize,
    /// Wall time spent generating and checking inputs.
    pub gen_s: f64,
}

impl Plan {
    pub fn build(kind: Kind, seed: u64, seconds: f64) -> Result<Plan, String> {
        let start = Instant::now();
        let mut b = Builder::new(seed);
        let (working_set, depth, cache_capacity, disk_capacity) = match kind {
            Kind::ColdDecide => {
                b.sessions(12, 4)?;
                b.fill((COLD_RATE * seconds) as usize, 1, cold_candidate);
                (0, 1, DEFAULT_CAPACITY, DEFAULT_DISK_CAPACITY)
            }
            Kind::HotRepeat => {
                b.sessions(8, 0)?;
                b.fill(HOT_SET, 8, |rng, ses, i| {
                    let si = rng.gen_range(0..ses.len());
                    let verb = verb_at(i);
                    let (a, q) = pair_for(rng, ses[si].schema(), verb, 4, 5, 0.3);
                    Some((si, verb, a, q, LIGHT))
                });
                let fresh = (HOT_RATE * seconds / HOT_INJECT_EVERY as f64) as usize;
                b.fill(fresh, 8, |rng, ses, _| {
                    let si = rng.gen_range(0..ses.len());
                    let (a, q) = full_pair(rng, ses[si].schema(), 1, 3)?;
                    Some((si, Verb::Contains, a, q, LIGHT))
                });
                (HOT_SET, 8, DEFAULT_CAPACITY, DEFAULT_DISK_CAPACITY)
            }
            Kind::SpillRestart => {
                b.sessions(8, 0)?;
                let cheap = |rng: &mut StdRng, ses: &[Session], i: usize| {
                    let si = rng.gen_range(0..ses.len());
                    let verb = if i % 4 == 3 {
                        Verb::Equiv
                    } else {
                        Verb::Contains
                    };
                    let (a, q) = pair_for(rng, ses[si].schema(), verb, 4, 4, 0.0);
                    Some((si, verb, a, q, LIGHT))
                };
                b.fill(SPILL_SET, 4, cheap);
                let fresh = (SPILL_RATE * seconds / SPILL_NEW_EVERY as f64) as usize;
                b.fill(fresh, 4, cheap);
                (SPILL_SET, 8, SPILL_SET / 4, SPILL_DISK)
            }
        };
        if b.pairs.len() <= working_set {
            return Err(format!(
                "input generation produced only {} pairs",
                b.pairs.len()
            ));
        }
        Ok(Plan {
            kind,
            seed,
            sessions: b.sessions,
            pairs: b.pairs,
            working_set,
            depth,
            cache_capacity,
            disk_capacity,
            dropped: b.dropped,
            gen_s: start.elapsed().as_secs_f64(),
        })
    }

    /// The `schema` lines that define every session.
    pub fn schema_lines(&self) -> Vec<String> {
        self.sessions
            .iter()
            .map(|s| format!("schema {} {}", s.name, escape(&s.text)))
            .collect()
    }

    /// Append one operation's request triple for connection `conn`. Each
    /// connection binds its own query names, so the two never race.
    pub fn wire(&self, op: Op, conn: usize, out: &mut Vec<u8>) {
        let p = &self.pairs[op.pair];
        let s = &self.sessions[p.session].name;
        let (a, b) = &p.texts[op.variant];
        let _ = write!(out, "query {s} a{conn} {a}\nquery {s} b{conn} {b}\n");
        let _ = match p.verb {
            Verb::Minimize => writeln!(out, "minimize {s} a{conn}"),
            v => writeln!(out, "{} {s} a{conn} b{conn}", v.word()),
        };
    }

    /// Untimed operations run before the measured window on the same
    /// daemon: `hot_repeat` touches its whole working set, then draws
    /// Zipf traffic without new pairs. Empty for the other workloads.
    pub fn warmup(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        match self.kind {
            Kind::HotRepeat => {
                let mut feed = HotFeed::new(self, false);
                let ranks: Vec<usize> = feed.ranks.iter().copied().collect();
                let first: Vec<Op> = ranks.into_iter().map(|p| feed.op(p)).collect();
                Box::new(
                    first
                        .into_iter()
                        .chain((0..HOT_WARMUP).map_while(move |_| feed.next())),
                )
            }
            _ => Box::new(std::iter::empty()),
        }
    }

    /// `spill_restart`: the pass that writes the working set to the log.
    pub fn populate(&self) -> impl Iterator<Item = Op> {
        (0..self.working_set).map(|pair| Op { pair, variant: 0 })
    }

    /// The measured stream.
    pub fn measured(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        match self.kind {
            Kind::ColdDecide => Box::new((0..self.pairs.len()).map(|pair| Op { pair, variant: 0 })),
            Kind::HotRepeat => Box::new(HotFeed::new(self, true)),
            Kind::SpillRestart => Box::new(SpillFeed {
                rng: StdRng::seed_from_u64(self.seed ^ 0x5f11),
                i: 0,
                next_new: self.working_set,
                uses: vec![0; self.working_set],
                plan: self,
            }),
        }
    }
}

/// Zipf (s = 1) draws over a ranked working set; with `inject`, every
/// [`HOT_INJECT_EVERY`]th operation puts the next pool pair at rank 1 and
/// drops the last rank, so a new pair's first copies arrive together.
struct HotFeed<'a> {
    plan: &'a Plan,
    rng: StdRng,
    cdf: Vec<f64>,
    ranks: VecDeque<usize>,
    uses: Vec<u32>,
    inject: bool,
    i: u64,
    next_new: usize,
}

impl<'a> HotFeed<'a> {
    fn new(plan: &'a Plan, inject: bool) -> HotFeed<'a> {
        let mut order_rng = StdRng::seed_from_u64(plan.seed ^ 0x4a11);
        let mut ranks: Vec<usize> = (0..plan.working_set).collect();
        shuffle(&mut ranks, &mut order_rng);
        let mut cdf = Vec::with_capacity(ranks.len());
        let mut acc = 0.0;
        for k in 1..=ranks.len() {
            acc += 1.0 / k as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        HotFeed {
            plan,
            rng: StdRng::seed_from_u64(plan.seed ^ if inject { 0x1 } else { 0x2 }),
            cdf,
            ranks: ranks.into(),
            uses: vec![0; plan.pairs.len()],
            inject,
            i: 0,
            next_new: plan.working_set,
        }
    }

    fn op(&mut self, pair: usize) -> Op {
        let n = self.plan.pairs[pair].texts.len();
        let variant = self.uses[pair] as usize % n;
        self.uses[pair] += 1;
        Op { pair, variant }
    }
}

impl Iterator for HotFeed<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.i += 1;
        if self.inject && self.i.is_multiple_of(HOT_INJECT_EVERY) {
            // An exhausted pool ends the stream rather than change the mix.
            let fresh = self.next_new;
            if fresh >= self.plan.pairs.len() {
                return None;
            }
            self.next_new += 1;
            self.ranks.push_front(fresh);
            self.ranks.pop_back();
            return Some(self.op(fresh));
        }
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.ranks.len() - 1);
        let pair = self.ranks[rank];
        Some(self.op(pair))
    }
}

/// Uniform re-reads of the logged working set, with every
/// [`SPILL_NEW_EVERY`]th operation a new pair that appends a record.
struct SpillFeed<'a> {
    plan: &'a Plan,
    rng: StdRng,
    i: u64,
    next_new: usize,
    uses: Vec<u32>,
}

impl Iterator for SpillFeed<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.i += 1;
        if self.i.is_multiple_of(SPILL_NEW_EVERY) {
            let pair = self.next_new;
            if pair >= self.plan.pairs.len() {
                return None;
            }
            self.next_new += 1;
            return Some(Op { pair, variant: 0 });
        }
        let pair = self.rng.gen_range(0..self.plan.working_set);
        let n = self.plan.pairs[pair].texts.len();
        let variant = self.uses[pair] as usize % n;
        self.uses[pair] += 1;
        Some(Op { pair, variant })
    }
}

/// Operation `i` of a verb-mixed stream: 60/20/20 contains/equiv/minimize.
fn verb_at(i: usize) -> Verb {
    match i % 5 {
        3 => Verb::Equiv,
        4 => Verb::Minimize,
        _ => Verb::Contains,
    }
}

/// Candidate `i` of `cold_decide`. One in five is a Theorem 3.1 pair of
/// the `full(m, f)` family (a third of the `contains` share), cycling
/// m ∈ 1..=3, f ∈ 4..=8 so the heavy tail has the same shape on every
/// seed; one in four of the rest runs on a constrained session.
fn cold_candidate(rng: &mut StdRng, ses: &[Session], i: usize) -> Option<Draft> {
    let plain: Vec<usize> = (0..ses.len()).filter(|&s| !ses[s].constrained).collect();
    let constrained: Vec<usize> = (0..ses.len()).filter(|&s| ses[s].constrained).collect();
    if i.is_multiple_of(5) {
        let k = i / 5;
        for _ in 0..16 {
            let si = plain[rng.gen_range(0..plain.len())];
            if let Some((a, b)) = full_pair(rng, ses[si].schema(), 1 + k % 3, 4 + (k / 3) % 5) {
                return Some((si, Verb::Contains, a, b, HEAVY));
            }
        }
        return None;
    }
    let pool = if i % 4 == 1 && !constrained.is_empty() {
        &constrained
    } else {
        &plain
    };
    let si = pool[rng.gen_range(0..pool.len())];
    let verb = verb_at(i);
    let (a, b) = pair_for(rng, ses[si].schema(), verb, 4, 5, 0.3);
    Some((si, verb, a, b, LIGHT))
}

/// Operands for one verb: `contains` against a weakened copy or an
/// unrelated query; `equiv` against a copy with a redundant variable or a
/// weakened copy; `minimize` of a query carrying redundant variables.
fn pair_for(
    rng: &mut StdRng,
    s: &Schema,
    verb: Verb,
    vars: usize,
    atoms: usize,
    lift: f64,
) -> (Query, Query) {
    let a = shape(rng, s, vars, atoms, lift);
    match verb {
        Verb::Contains => {
            let b = if rng.gen_bool(0.5) {
                weaken(rng, s, &a, lift)
            } else {
                shape(rng, s, vars, atoms, lift)
            };
            (a, b)
        }
        Verb::Equiv => {
            let b = if rng.gen_bool(0.5) {
                with_copy(rng, &a)
            } else {
                weaken(rng, s, &a, lift)
            };
            (a, b)
        }
        Verb::Minimize => {
            let a = with_copy(rng, &a);
            let b = weaken(rng, s, &a, lift);
            (a, b)
        }
    }
}

/// A random positive query, ranging over non-terminal classes (so that
/// decisions expand it) with probability `lift`.
fn shape(rng: &mut StdRng, s: &Schema, vars: usize, atoms: usize, lift: f64) -> Query {
    let p = QueryParams { vars, atoms };
    if rng.gen_bool(lift) {
        random_positive(rng, s, &p)
    } else {
        random_terminal_positive(rng, s, &p)
    }
}

/// A query implied by `q`: non-range atoms kept with probability 0.6,
/// variables left without one dropped, ranges lifted to an ancestor with
/// probability `lift`.
fn weaken(rng: &mut StdRng, s: &Schema, q: &Query, lift: f64) -> Query {
    let free = q.free_var();
    let kept: Vec<&Atom> = q
        .atoms()
        .iter()
        .filter(|a| !matches!(a, Atom::Range(..)))
        .filter(|_| rng.gen_bool(0.6))
        .collect();
    let mut used = vec![false; q.var_count()];
    used[free.index()] = true;
    for a in &kept {
        for v in a.vars() {
            used[v.index()] = true;
        }
    }
    let mut b = QueryBuilder::new(q.var_name(free));
    let mut ids = vec![b.free(); q.var_count()];
    for v in q.vars().filter(|&v| v != free && used[v.index()]) {
        ids[v.index()] = b.var(q.var_name(v));
    }
    for a in q.atoms() {
        if let Atom::Range(v, cs) = a {
            if !used[v.index()] {
                continue;
            }
            let c = cs[0];
            let class = if rng.gen_bool(lift) {
                let up: Vec<_> = s.classes().filter(|&u| s.is_subclass(c, u)).collect();
                up[rng.gen_range(0..up.len())]
            } else {
                c
            };
            b.range(ids[v.index()], [class]);
        }
    }
    for a in kept {
        b.atom(a.map_vars(|v| ids[v.index()]));
    }
    b.build()
}

/// `q` plus a copy of one bound variable with all of its atoms: equivalent
/// to `q` (the copy folds back onto the original) but not isomorphic.
fn with_copy(rng: &mut StdRng, q: &Query) -> Query {
    let bound: Vec<VarId> = q.vars().filter(|&v| v != q.free_var()).collect();
    if bound.is_empty() {
        return q.clone();
    }
    let v = bound[rng.gen_range(0..bound.len())];
    let (copy, w) = q.with_fresh_var(&format!("{}c", q.var_name(v)));
    let extra: Vec<Atom> = q
        .atoms()
        .iter()
        .filter(|a| a.vars().contains(&v))
        .map(|a| a.map_vars(|u| if u == v { w } else { u }))
        .collect();
    copy.with_extra_atoms(extra)
}

/// A Theorem 3.1 pair of the `full(m, f)` family grafted onto a random
/// terminal query of `s`: the left side adds `m` members of a set
/// attribute of its answer variable, one pinned non-member and `f`
/// floaters of the member class; the right side asks only for a
/// non-member. `None` when the answer variable's class has no set
/// attribute.
fn full_pair(
    rng: &mut StdRng,
    s: &Schema,
    members: usize,
    floaters: usize,
) -> Option<(Query, Query)> {
    let base = random_terminal_positive(rng, s, &QueryParams { vars: 3, atoms: 3 });
    let x = base.free_var();
    let t = base.terminal_class_of(x)?;
    let sets: Vec<_> = s
        .effective_type(t)
        .iter()
        .filter_map(|(&a, ty)| match ty {
            AttrType::SetOf(d) => Some((a, *d)),
            _ => None,
        })
        .collect();
    if sets.is_empty() {
        return None;
    }
    let (attr, d) = sets[rng.gen_range(0..sets.len())];
    let cs = s.terminal_descendants(d);
    let c = cs[rng.gen_range(0..cs.len())];
    let mut b = QueryBuilder::new(base.var_name(x));
    let mut ids = vec![b.free(); base.var_count()];
    for v in base.vars().filter(|&v| v != x) {
        ids[v.index()] = b.var(base.var_name(v));
    }
    for a in base.atoms() {
        b.atom(a.map_vars(|v| ids[v.index()]));
    }
    let xb = b.free();
    for i in 0..members {
        let y = b.var(&format!("y{i}"));
        b.range(y, [c]).member(y, xb, attr);
    }
    let u = b.var("u");
    b.range(u, [c]).non_member(u, xb, attr);
    for i in 0..floaters {
        let z = b.var(&format!("z{i}"));
        b.range(z, [c]);
    }
    let mut r = QueryBuilder::new("x");
    let rx = r.free();
    let u2 = r.var("u2");
    r.range(rx, [t]).range(u2, [c]).non_member(u2, rx, attr);
    Some((b.build(), r.build()))
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Render `q` with fresh variable names, shuffled quantifier order and
/// shuffled atoms — what a client would send for the same query.
fn render(q: &Query, s: &Schema, rng: &mut StdRng) -> String {
    const LETTERS: &[u8] = b"bcdfghjkmpqstwz";
    let mut names: Vec<String> = Vec::with_capacity(q.var_count());
    while names.len() < q.var_count() {
        let name = format!(
            "{}{}",
            LETTERS[rng.gen_range(0..LETTERS.len())] as char,
            rng.gen_range(0..1000)
        );
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let free = q.free_var();
    let mut b = QueryBuilder::new(&names[free.index()]);
    let mut bound: Vec<VarId> = q.vars().filter(|&v| v != free).collect();
    shuffle(&mut bound, rng);
    let mut ids = vec![b.free(); q.var_count()];
    for v in bound {
        ids[v.index()] = b.var(&names[v.index()]);
    }
    let mut atoms = q.atoms().to_vec();
    shuffle(&mut atoms, rng);
    for a in atoms {
        b.atom(a.map_vars(|v| ids[v.index()]));
    }
    b.build().display(s).to_string()
}

/// Decide one pair the way the daemon answers it, returning the response
/// payload (unescaped).
fn decide(
    engine: &Engine,
    verb: Verb,
    pa: &PreparedQuery,
    pb: &PreparedQuery,
) -> Result<String, CoreError> {
    let verdict = |holds: bool| if holds { "holds" } else { "FAILS" }.to_owned();
    Ok(match verb {
        Verb::Contains => verdict(engine.dispatch(pa, pb)?),
        Verb::Equiv => verdict(engine.dispatch(pa, pb)? && engine.dispatch(pb, pa)?),
        Verb::Minimize => minimized_text(&engine.minimize(pa)?, pa.schema().schema()),
    })
}

/// The `minimize` response payload for a minimized union.
pub fn minimized_text(m: &oocq_query::UnionQuery, s: &Schema) -> String {
    if m.is_empty() {
        return "(unsatisfiable: empty union)".to_owned();
    }
    let lines: Vec<String> = m
        .queries()
        .iter()
        .map(|q| q.display(s).to_string())
        .collect();
    lines.join("\n")
}

struct Reference {
    expect: String,
    planned: u64,
    /// Work units the decision charged.
    work: u64,
}

/// The untimed reference: a fresh serial engine with no cache, on the
/// exact text the daemon receives, under [`WORK_LIMIT`].
fn reference(ses: &Session, verb: Verb, a: &str, b: &str) -> Option<Reference> {
    let qa = parse_query(ses.schema(), a).ok()?;
    let qb = parse_query(ses.schema(), b).ok()?;
    let budget = Budget::with_limit(WORK_LIMIT);
    let engine = Engine::new(EngineConfig::serial().with_budget(budget.clone()));
    let pa = engine.prepare(&ses.prepared, &qa);
    let pb = engine.prepare(&ses.prepared, &qb);
    let payload = decide(&engine, verb, &pa, &pb).ok()?;
    let planned =
        pa.stats().branch_stats.branches_planned + pb.stats().branch_stats.branches_planned;
    Some(Reference {
        expect: escape(&payload),
        planned,
        work: budget.work(),
    })
}

/// A generated pair: session, verb, operands, and the band of work units
/// its reference decision must charge to be kept.
type Draft = (usize, Verb, Query, Query, Band);
type Band = (u64, u64);
/// Ordinary pairs: anything up to this many work units.
const LIGHT: Band = (0, 400);
/// Theorem 3.1 (`full(m, f)`) pairs: heavy, but in the same band on every
/// seed, so the latency tail they form has the same shape.
const HEAVY: Band = (8, WORK_LIMIT);

/// One generated pair after keying, rendering and its reference decision.
struct Candidate {
    session: usize,
    verb: Verb,
    /// Canonical forms of both operands (the dedupe key).
    keys: (CanonicalQuery, CanonicalQuery),
    texts: Vec<(String, String)>,
    /// `None` when the reference failed or left the pair's work band.
    reference: Option<Reference>,
}

/// The canonical form of `q`, or `None` when labeling it is too costly.
fn canonical(ses: &Session, q: &Query) -> Option<CanonicalQuery> {
    PreparedQuery::new(&ses.prepared, q.clone())
        .try_canonical_form(&Budget::with_limit(CANON_LIMIT))
        .ok()
        .cloned()
}

/// Candidate `i` of one fill: drawn from its own seeded generator, so the
/// result does not depend on which thread made it.
fn candidate<F>(
    make: &F,
    sessions: &[Session],
    seed: u64,
    i: usize,
    variants: usize,
) -> Option<Candidate>
where
    F: Fn(&mut StdRng, &[Session], usize) -> Option<Draft>,
{
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (session, verb, a, b, band) = make(&mut rng, sessions, i)?;
    let ses = &sessions[session];
    let keys = (canonical(ses, &a)?, canonical(ses, &b)?);
    let n = if verb == Verb::Minimize { 1 } else { variants };
    let texts: Vec<(String, String)> = (0..n)
        .map(|_| {
            (
                render(&a, ses.schema(), &mut rng),
                render(&b, ses.schema(), &mut rng),
            )
        })
        .collect();
    // Every variant renders the same pair, and `minimize` (whose output
    // carries names) has only one, so variant 0 stands for all.
    let reference = reference(ses, verb, &texts[0].0, &texts[0].1)
        .filter(|r| (band.0..=band.1).contains(&r.work));
    Some(Candidate {
        session,
        verb,
        keys,
        texts,
        reference,
    })
}

struct Builder {
    rng: StdRng,
    sessions: Vec<Session>,
    pairs: Vec<Pair>,
    /// Containment directions already asked, up to isomorphism.
    seen: HashSet<(usize, CanonicalQuery, CanonicalQuery)>,
    /// Queries already minimized, up to isomorphism.
    seen_min: HashSet<(usize, CanonicalQuery)>,
    dropped: usize,
    threads: usize,
    started: Instant,
}

impl Builder {
    fn new(seed: u64) -> Builder {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        Builder {
            rng: StdRng::seed_from_u64(seed),
            sessions: Vec::new(),
            pairs: Vec::new(),
            seen: HashSet::new(),
            seen_min: HashSet::new(),
            dropped: 0,
            threads,
            started: Instant::now(),
        }
    }

    /// `plain` random schemas and `constrained` ones with declared
    /// constraints, each round-tripped through the DSL text the daemon
    /// parses, so class and attribute ids match the daemon's.
    fn sessions(&mut self, plain: usize, constrained: usize) -> Result<(), String> {
        let p = SchemaParams::default();
        for i in 0..plain + constrained {
            let generated = if i < plain {
                random_schema(&mut self.rng, &p)
            } else {
                constrained_schema(&mut self.rng, &p, &ConstraintParams::default())
            };
            let text = generated.to_string();
            let schema = parse_schema(&text).map_err(|e| format!("schema round trip: {e}"))?;
            self.sessions.push(Session {
                name: format!("s{i}"),
                text,
                prepared: PreparedSchema::new(&schema),
                constrained: schema.has_constraints(),
            });
        }
        Ok(())
    }

    /// Record the pair's keys; `false` when it repeats an earlier pair up
    /// to isomorphism.
    fn fresh(&mut self, c: &Candidate) -> bool {
        let (ca, cb) = c.keys.clone();
        match c.verb {
            Verb::Minimize => self.seen_min.insert((c.session, ca)),
            Verb::Contains => self.seen.insert((c.session, ca, cb)),
            Verb::Equiv => {
                let back = (c.session, cb.clone(), ca.clone());
                if self.seen.contains(&back) {
                    return false;
                }
                self.seen.insert((c.session, ca, cb)) && self.seen.insert(back)
            }
        }
    }

    /// Append up to `target` checked pairs made by `make`, each with
    /// `variants` renderings (one for `minimize`). Candidates are made and
    /// checked in parallel batches, then kept in index order.
    fn fill<F>(&mut self, target: usize, variants: usize, make: F)
    where
        F: Fn(&mut StdRng, &[Session], usize) -> Option<Draft> + Sync,
    {
        let seed = self.rng.next_u64();
        let goal = self.pairs.len() + target;
        let mut next = 0;
        while self.pairs.len() < goal && self.started.elapsed() < GEN_CAP {
            let want = goal - self.pairs.len();
            let count = (want + want / 4 + 8).min(BATCH);
            let made = self.batch(&make, seed, next..next + count, variants);
            next += count;
            for c in made.into_iter().flatten() {
                if self.pairs.len() == goal || !self.fresh(&c) {
                    continue;
                }
                match c.reference {
                    Some(r) => self.pairs.push(Pair {
                        session: c.session,
                        verb: c.verb,
                        texts: c.texts,
                        expect: r.expect,
                        planned: r.planned,
                    }),
                    None => self.dropped += 1,
                }
            }
            if next > 64 * goal + 1024 {
                break; // the generator cannot produce enough distinct pairs
            }
        }
    }

    /// Candidates `range`, split in order across the worker threads.
    fn batch<F>(
        &self,
        make: &F,
        seed: u64,
        range: std::ops::Range<usize>,
        variants: usize,
    ) -> Vec<Option<Candidate>>
    where
        F: Fn(&mut StdRng, &[Session], usize) -> Option<Draft> + Sync,
    {
        let sessions = &self.sessions;
        let idx: Vec<usize> = range.collect();
        let chunk = idx.len().div_ceil(self.threads).max(1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = idx
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|&i| candidate(make, sessions, seed, i, variants))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("generator worker panicked"))
                .collect()
        })
    }
}
