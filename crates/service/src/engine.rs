//! The shared service engine: named schema sessions, decision execution,
//! and per-request statistics.
//!
//! Sessions are updated in place. `schema` replaces a session, `query`
//! inserts or replaces one binding, and `constraint` re-prepares the
//! session's bindings, each under the session table's write lock. A
//! decision request does not hold on to its session: when it is read, in
//! input order, [`ServiceEngine::snapshot_for`] resolves its names to the
//! handles they are bound to at that moment and returns them as a
//! [`Capture`] (the [`PreparedSchema`] plus one or two [`PreparedQuery`]
//! handles, each an `Arc` clone). A worker runs the request against the
//! capture and never looks a name up, so a later redefinition cannot reach
//! a request already read, and the response stream reads as if the
//! commands ran one after another. Binding a name costs the same however
//! many names the session holds; a session holds at most
//! [`MAX_SESSION_QUERIES`] of them, and an engine at most [`MAX_SESSIONS`]
//! sessions.

use crate::cache::{
    parse_capacity, CanonicalDecisionCache, ContainsKey, MinimizeKey, DEFAULT_DISK_CAPACITY,
};
use crate::flight::{FlightKey, FlightStats};
use crate::protocol::{Request, RequestStats};
use crate::runner::{coverage_lines, run_program_with};
use oocq_core::{
    expand, satisfiability, Budget, DecisionCache, Engine, EngineConfig, PreparedQuery,
    PreparedSchema, Satisfiability,
};
use oocq_parser::{parse_program, parse_query, parse_schema};
use oocq_query::{normalize, UnionQuery};
use oocq_schema::Schema;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// The most query names one session may bind. Redefining a bound name
/// always works; a new name beyond this is answered with an error. A
/// binding (name, handle, parsed query and the handle's empty memo cells)
/// measured 1.4 KiB of resident memory for `{ x | x in C }` and 1.8 KiB
/// for an eight-atom query, so a full session holds 180–240 MiB before any
/// decision memoizes artifacts on its handles.
pub const MAX_SESSION_QUERIES: usize = 1 << 17;

/// The most sessions one engine may hold. Redefining an existing session
/// always works; a new session name beyond this is answered with an
/// error, so one client's `schema s<N> …` lines cannot grow the session
/// table without bound.
pub const MAX_SESSIONS: usize = 1 << 10;

/// One named session: a prepared schema plus the prepared queries bound
/// against it.
///
/// Holding [`PreparedSchema`]/[`PreparedQuery`] handles (rather than raw
/// values) means a named query is analyzed at most once for as long as its
/// binding lives: captures clone the handles (`Arc` pointer copies), so
/// analysis, terminal classes, canonical form, and branch indexes built by
/// one request are visible to every later request that captured the same
/// binding.
struct Session {
    schema: PreparedSchema,
    queries: HashMap<String, PreparedQuery>,
}

/// What a decision request resolved when it was read: its session's
/// schema and the handles its one or two query names were bound to, in
/// argument order. An unbound name is kept as `None` and reported when the
/// request runs, in its place in the response order.
pub struct Capture {
    schema: PreparedSchema,
    queries: [Option<PreparedQuery>; 2],
}

impl Capture {
    /// The captured session's schema.
    pub(crate) fn schema(&self) -> &Schema {
        self.schema.schema()
    }

    /// The captured session's prepared schema handle.
    pub(crate) fn prepared_schema(&self) -> &PreparedSchema {
        &self.schema
    }

    /// The handle of the request's `slot`-th query name (`name`), or the
    /// error an unbound name answers.
    fn query(&self, slot: usize, name: &str, session: &str) -> Result<&PreparedQuery, String> {
        self.queries[slot]
            .as_ref()
            .ok_or_else(|| format!("unknown query `{name}` in session `{session}`"))
    }
}

/// The session and query names a decision request reads, or `None` for a
/// request that reads no session (`run`).
fn request_names(req: &Request) -> Option<(&str, [Option<&str>; 2])> {
    match req {
        Request::Satisfiable { session, query }
        | Request::Expand { session, query }
        | Request::Minimize { session, query } => Some((session, [Some(query), None])),
        Request::Contains { session, q1, q2 }
        | Request::Equivalent { session, q1, q2 }
        | Request::Explain { session, q1, q2 } => Some((session, [Some(q1), Some(q2)])),
        Request::Limited { inner, .. } => request_names(inner),
        _ => None,
    }
}

/// Why a session-table lock can fail: a thread panicked while holding it.
/// Every update leaves the table whole, but a panic there is a bug.
const POISONED: &str = "a thread panicked while holding the session table";

fn unknown_session(name: &str) -> String {
    format!("unknown session `{name}` (define it with `schema {name} <text>`)")
}

/// A per-request cache view: delegates to the shared cache (when enabled)
/// and counts hits and computed decisions for the stats suffix. A `put`
/// marks one decision the engine actually computed, so `decided` counts
/// branch-engine runs whether or not caching is on.
struct CountingView {
    inner: Option<Arc<CanonicalDecisionCache>>,
    hits: AtomicU64,
    decided: AtomicU64,
}

impl DecisionCache for CountingView {
    fn get_contains_prepared(&self, p1: &PreparedQuery, p2: &PreparedQuery) -> Option<bool> {
        let r = self
            .inner
            .as_ref()
            .and_then(|c| c.get_contains_prepared(p1, p2));
        if r.is_some() {
            self.hits.fetch_add(1, Relaxed);
        }
        r
    }

    fn put_contains_prepared(&self, p1: &PreparedQuery, p2: &PreparedQuery, holds: bool) {
        self.decided.fetch_add(1, Relaxed);
        if let Some(c) = &self.inner {
            c.put_contains_prepared(p1, p2, holds);
        }
    }

    fn get_minimized_prepared(&self, p: &PreparedQuery) -> Option<UnionQuery> {
        let r = self
            .inner
            .as_ref()
            .and_then(|c| c.get_minimized_prepared(p));
        if r.is_some() {
            self.hits.fetch_add(1, Relaxed);
        }
        r
    }

    fn put_minimized_prepared(&self, p: &PreparedQuery, result: &UnionQuery) {
        self.decided.fetch_add(1, Relaxed);
        if let Some(c) = &self.inner {
            c.put_minimized_prepared(p, result);
        }
    }
}

/// The shared engine behind one `oocq-serve` process: the decision cache,
/// the base [`EngineConfig`], and the session table.
pub struct ServiceEngine {
    cache: Option<Arc<CanonicalDecisionCache>>,
    base: EngineConfig,
    sessions: RwLock<HashMap<String, Session>>,
    /// Per-request wall-clock deadline (`OOCQ_DEADLINE_MS`); the budget's
    /// clock starts when the request begins executing, not at config time.
    deadline: Option<Duration>,
    /// Explicit job-queue bound (`OOCQ_QUEUE_BOUND`); `None` derives one
    /// from the pool size.
    queue_bound: Option<usize>,
    /// Concurrent-connection cap of the TCP server (`OOCQ_MAX_CONNS`).
    max_conns: usize,
    /// Singleflight coalescing of identical in-flight decisions in the
    /// reactor (on unless turned off in code, as B11's ablation does).
    coalesce: bool,
}

/// Default [`ServiceEngine::max_conns`] when `OOCQ_MAX_CONNS` is unset.
pub const DEFAULT_MAX_CONNS: usize = 4096;

/// Parse a number knob (`OOCQ_THREADS`, `OOCQ_DEADLINE_MS`, …): a positive
/// integer, surrounding whitespace tolerated, counts; anything else
/// (unset, empty, `0`, negative, non-numeric, trailing junk) means "not
/// set" and the caller keeps its default.
fn parse_positive(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

impl ServiceEngine {
    /// An engine with an explicit (or no) cache.
    pub fn with_cache(
        base: EngineConfig,
        cache: Option<Arc<CanonicalDecisionCache>>,
    ) -> ServiceEngine {
        ServiceEngine {
            cache,
            base,
            sessions: RwLock::new(HashMap::new()),
            deadline: None,
            queue_bound: None,
            max_conns: DEFAULT_MAX_CONNS,
            coalesce: true,
        }
    }

    /// The daemon's configuration, read from the environment. This is the
    /// one reader of the daemon's `OOCQ_*` knobs (`OOCQ_LISTEN`, a
    /// transport address, is `daemon_main`'s). A number knob counts only
    /// when it is a positive integer; anything else keeps its default.
    ///
    /// * `OOCQ_THREADS`: worker-pool size (default: the machine's
    ///   available parallelism);
    /// * `OOCQ_CACHE_CAPACITY`: decision-cache entries per table (default
    ///   [`DEFAULT_CAPACITY`](crate::DEFAULT_CAPACITY); any zero, such as
    ///   `0` or `00`, turns the cache off);
    /// * `OOCQ_CACHE_DIR`: when set and non-empty, the directory of the
    ///   cache's disk tier (a directory that cannot be opened degrades to
    ///   memory-only with a note on stderr);
    /// * `OOCQ_CACHE_DISK_CAPACITY`: distinct verdicts the disk tier holds
    ///   (default [`DEFAULT_DISK_CAPACITY`]);
    /// * `OOCQ_DEADLINE_MS`: per-request wall-clock deadline (default none);
    /// * `OOCQ_QUEUE_BOUND`: job-queue bound (default 16 × threads);
    /// * `OOCQ_MAX_CONNS`: TCP connection cap (default
    ///   [`DEFAULT_MAX_CONNS`]).
    pub fn from_env() -> ServiceEngine {
        ServiceEngine::from_vars(|name| std::env::var(name).ok())
    }

    /// [`ServiceEngine::from_env`] over any variable lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> ServiceEngine {
        let positive = |name: &str| parse_positive(var(name).as_deref());
        let threads = positive("OOCQ_THREADS").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let cache = parse_capacity(var("OOCQ_CACHE_CAPACITY").as_deref()).map(|cap| {
            let dir = var("OOCQ_CACHE_DIR").unwrap_or_default();
            let dir = dir.trim();
            if !dir.is_empty() {
                let disk_cap =
                    positive("OOCQ_CACHE_DISK_CAPACITY").unwrap_or(DEFAULT_DISK_CAPACITY);
                match CanonicalDecisionCache::with_persistence(cap, Path::new(dir), disk_cap) {
                    Ok(cache) => return Arc::new(cache),
                    Err(e) => eprintln!("oocq-serve: cache persistence disabled ({dir}: {e})"),
                }
            }
            Arc::new(CanonicalDecisionCache::new(cap))
        });
        ServiceEngine::with_cache(EngineConfig::with_threads(threads), cache)
            .with_deadline(positive("OOCQ_DEADLINE_MS").map(|ms| Duration::from_millis(ms as u64)))
            .with_queue_bound(positive("OOCQ_QUEUE_BOUND"))
            .with_max_conns(positive("OOCQ_MAX_CONNS").unwrap_or(DEFAULT_MAX_CONNS))
    }

    /// The resolved knobs as `name=value` pairs, for the daemon's startup
    /// line. The cache entries report what is in force: `cache_dir` reads
    /// `off` when the disk tier is not live, whatever `OOCQ_CACHE_DIR` says.
    pub fn knobs(&self) -> String {
        let off = || "off".to_owned();
        let cache = self.cache.as_deref();
        let disk = cache.and_then(|c| c.persist_dir());
        format!(
            "threads={} cache_capacity={} cache_dir={} disk_capacity={} deadline_ms={} \
             queue_bound={} max_conns={}",
            self.pool_threads(),
            cache.map_or_else(off, |c| c.capacity().to_string()),
            disk.map_or_else(off, |(dir, _)| dir.display().to_string()),
            disk.map_or_else(off, |(_, cap)| cap.to_string()),
            self.deadline
                .map_or_else(off, |d| d.as_millis().to_string()),
            self.queue_bound(),
            self.max_conns,
        )
    }

    /// This engine with a per-request wall-clock deadline (`None` = none).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> ServiceEngine {
        self.deadline = deadline;
        self
    }

    /// This engine with an explicit dispatcher queue bound (`None` derives
    /// one from the pool size).
    pub fn with_queue_bound(mut self, bound: Option<usize>) -> ServiceEngine {
        self.queue_bound = bound;
        self
    }

    /// This engine with an explicit concurrent-connection cap.
    pub fn with_max_conns(mut self, max: usize) -> ServiceEngine {
        self.max_conns = max.max(1);
        self
    }

    /// This engine with singleflight coalescing enabled or disabled.
    pub fn with_coalescing(mut self, on: bool) -> ServiceEngine {
        self.coalesce = on;
        self
    }

    /// How many concurrent TCP connections the reactor accepts before
    /// answering `err busy` and closing.
    pub fn max_conns(&self) -> usize {
        self.max_conns
    }

    /// Is singleflight coalescing enabled for the reactor?
    pub fn coalescing(&self) -> bool {
        self.coalesce
    }

    /// The per-request wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The worker-pool size this engine wants (`base.threads`).
    pub fn pool_threads(&self) -> usize {
        self.base.threads
    }

    /// How many decision jobs the dispatcher may queue ahead of the workers
    /// before it stops reading input (backpressure). Never zero.
    pub fn queue_bound(&self) -> usize {
        self.queue_bound
            .unwrap_or_else(|| self.pool_threads().max(1) * 16)
            .max(1)
    }

    /// The shared decision cache, if enabled.
    pub fn cache(&self) -> Option<&Arc<CanonicalDecisionCache>> {
        self.cache.as_ref()
    }

    /// Create or replace a named session from schema DSL text. Replacing a
    /// session drops its query bindings (they were resolved against the
    /// old schema's identifiers).
    pub fn define_schema(&self, session: &str, text: &str) -> Result<String, String> {
        let schema = parse_schema(text).map_err(|e| format!("parse error at {e}"))?;
        let classes = schema.class_count();
        let fresh = Session {
            schema: PreparedSchema::from_arc(Arc::new(schema)),
            queries: HashMap::new(),
        };
        let mut sessions = self.sessions.write().expect(POISONED);
        if sessions.len() >= MAX_SESSIONS && !sessions.contains_key(session) {
            return Err(format!(
                "cannot define session `{session}`: {MAX_SESSIONS} sessions are already \
                 defined, the most one daemon may hold; redefine an existing session"
            ));
        }
        sessions.insert(session.to_owned(), fresh);
        Ok(format!("session {session}: {classes} classes"))
    }

    /// Bind (or rebind) a named query in a session, in place. Requests
    /// captured earlier keep the handle they resolved. The query is parsed
    /// outside the lock, against the schema the session has then; if the
    /// session was redefined before the lock is taken, it is parsed again
    /// against the new schema.
    pub fn define_query(&self, session: &str, name: &str, text: &str) -> Result<String, String> {
        loop {
            let schema = self.session_schema(session)?;
            let q =
                parse_query(schema.schema(), text).map_err(|e| format!("parse error at {e}"))?;
            let mut sessions = self.sessions.write().expect(POISONED);
            let ses = sessions
                .get_mut(session)
                .ok_or_else(|| unknown_session(session))?;
            if !Arc::ptr_eq(ses.schema.schema_arc(), schema.schema_arc()) {
                continue;
            }
            let prepared = PreparedQuery::new(&ses.schema, q);
            if let Some(slot) = ses.queries.get_mut(name) {
                *slot = prepared;
            } else if ses.queries.len() >= MAX_SESSION_QUERIES {
                return Err(format!(
                    "session `{session}` already binds {MAX_SESSION_QUERIES} queries, the most \
                     one session may hold; redefine a bound name or use another session"
                ));
            } else {
                ses.queries.insert(name.to_owned(), prepared);
            }
            return Ok(format!("query {name} defined in session {session}"));
        }
    }

    /// Add a declared constraint to a session's schema, in place. The
    /// constraint is validated by re-rendering the schema with the new
    /// `constraint …;` line appended and reparsing the result; because
    /// [`Schema`]'s `Display` preserves declaration order, every class and
    /// attribute identifier is stable across the round trip, so the
    /// session's bound queries stay valid and are re-prepared against the
    /// new schema unchanged. Re-preparing costs one handle per bound name;
    /// requests captured earlier keep the old handles.
    pub fn define_constraint(&self, session: &str, text: &str) -> Result<String, String> {
        let mut sessions = self.sessions.write().expect(POISONED);
        let ses = sessions
            .get_mut(session)
            .ok_or_else(|| unknown_session(session))?;
        let line = text.trim().trim_end_matches(';').trim_end();
        if line.is_empty() {
            return Err("empty constraint text".to_owned());
        }
        let combined = format!("{}constraint {line};\n", ses.schema.schema());
        let schema = parse_schema(&combined).map_err(|e| format!("parse error at {e}"))?;
        let n = schema.constraints().len();
        ses.schema = PreparedSchema::from_arc(Arc::new(schema));
        for p in ses.queries.values_mut() {
            *p = PreparedQuery::new(&ses.schema, p.query().clone());
        }
        Ok(format!("constraint added to session {session} ({n} total)"))
    }

    /// A session's current schema handle.
    fn session_schema(&self, name: &str) -> Result<PreparedSchema, String> {
        self.sessions
            .read()
            .expect(POISONED)
            .get(name)
            .map(|s| s.schema.clone())
            .ok_or_else(|| unknown_session(name))
    }

    /// Capture what a decision request should run against, in input order:
    /// its session's schema and the handles its query names are bound to
    /// now. `run` is self-contained and captures nothing. An unknown
    /// session is an error here; an unknown query name is reported when
    /// the request runs.
    pub fn snapshot_for(&self, req: &Request) -> Result<Option<Capture>, String> {
        let Some((session, names)) = request_names(req) else {
            return Ok(None);
        };
        let sessions = self.sessions.read().expect(POISONED);
        let ses = sessions
            .get(session)
            .ok_or_else(|| unknown_session(session))?;
        Ok(Some(Capture {
            schema: ses.schema.clone(),
            queries: names.map(|n| n.and_then(|n| ses.queries.get(n).cloned())),
        }))
    }

    /// Execute one decision request against what it captured.
    /// Returns the response payload (or error message) plus stats.
    ///
    /// Each execution gets a fresh [`Budget`] combining the engine-wide
    /// deadline (clock starting now) with the request's own `limit=` option,
    /// so one timed-out request never poisons the next.
    pub fn execute(
        &self,
        req: &Request,
        capture: Option<&Capture>,
    ) -> (Result<String, String>, RequestStats) {
        let (req, limit) = split_limit(req);
        self.execute_budgeted(req, capture, self.request_budget(limit))
    }

    /// The [`Budget`] one request runs under: the engine-wide deadline
    /// (clock starting now) combined with the request's `limit=` option.
    pub(crate) fn request_budget(&self, limit: Option<u64>) -> Budget {
        Budget::new(self.deadline, limit)
    }

    /// [`ServiceEngine::execute`] with the `limit=` wrapper already
    /// stripped and the budget supplied by the caller — the reactor builds
    /// the budget before deciding whether to coalesce, then runs the leader
    /// under the same (shared-counter) budget so canonicalization work done
    /// for the flight key is charged exactly once.
    pub(crate) fn execute_budgeted(
        &self,
        req: &Request,
        capture: Option<&Capture>,
        budget: Budget,
    ) -> (Result<String, String>, RequestStats) {
        let start = Instant::now();
        #[cfg(test)]
        panic_injection(req);
        #[cfg(test)]
        slow_injection(req);
        let view = Arc::new(CountingView {
            inner: self.cache.clone(),
            hits: AtomicU64::new(0),
            decided: AtomicU64::new(0),
        });
        let cfg = self
            .base
            .clone()
            .with_cache(view.clone())
            .with_budget(budget);
        let result = self.execute_inner(req, capture, &cfg);
        let stats = RequestStats {
            cached: view.hits.load(Relaxed),
            decided: view.decided.load(Relaxed),
            wall_us: start.elapsed().as_micros() as u64,
            threads: self.base.threads,
        };
        (result, stats)
    }

    /// The singleflight identity of a (already `limit=`-stripped) request,
    /// or `None` when it is not coalescable: only `contains`/`equiv`/
    /// `minimize` are — the other decision verbs render schema-dependent
    /// reports too cheap to be worth a table entry — and name-lookup
    /// failures return `None` so [`ServiceEngine::execute`] surfaces the
    /// real error message. `Err` carries a budget trip during
    /// canonicalization (the canonical labeling has a factorial worst case
    /// and must honor the request budget even on this pre-pass).
    pub(crate) fn flight_key(
        &self,
        req: &Request,
        capture: Option<&Capture>,
        budget: &Budget,
    ) -> Result<Option<FlightKey>, String> {
        let Some(cap) = capture else {
            return Ok(None);
        };
        match req {
            Request::Contains { .. } | Request::Equivalent { .. } => {
                let [Some(p1), Some(p2)] = &cap.queries else {
                    return Ok(None);
                };
                let c1 = p1
                    .try_shared_canonical_form(budget)
                    .map_err(|e| e.to_string())?
                    .clone();
                let c2 = p2
                    .try_shared_canonical_form(budget)
                    .map_err(|e| e.to_string())?
                    .clone();
                let key = ContainsKey::new(cap.prepared_schema(), c1, c2);
                Ok(Some(if matches!(req, Request::Contains { .. }) {
                    FlightKey::Contains(key)
                } else {
                    FlightKey::Equivalent(key)
                }))
            }
            Request::Minimize { .. } => {
                let Some(p) = &cap.queries[0] else {
                    return Ok(None);
                };
                Ok(Some(FlightKey::Minimize(MinimizeKey::of(p))))
            }
            _ => Ok(None),
        }
    }

    /// The `stats show` report: cache traffic, coalescing traffic, and the
    /// asking connection's decision backlog.
    pub(crate) fn stats_report(&self, flight: &FlightStats, backlog: usize) -> String {
        let mut out = String::new();
        match &self.cache {
            Some(c) => {
                let s = c.stats();
                let _ = write!(
                    out,
                    "cache: contains_hits={} contains_misses={} minimize_hits={} \
                     minimize_misses={} evictions={} entries={}",
                    s.contains_hits,
                    s.contains_misses,
                    s.minimize_hits,
                    s.minimize_misses,
                    s.evictions,
                    c.len()
                );
            }
            None => out.push_str("cache: disabled"),
        }
        match self.cache.as_ref().and_then(|c| c.persist_stats()) {
            Some(p) => {
                let _ = write!(
                    out,
                    " | persist: tier2_hits={} loaded={} appended={} stale={} corrupt={} \
                     superseded={} rejected={} compactions={} entries={}",
                    p.tier2_hits,
                    p.loaded,
                    p.appended,
                    p.stale,
                    p.corrupt,
                    p.superseded,
                    p.rejected,
                    p.compactions,
                    p.entries
                );
            }
            None => out.push_str(" | persist: off"),
        }
        let _ = write!(
            out,
            " | coalesce: leaders={} waiters={} fanouts={} expired={} inflight={} \
             | conn: backlog={backlog}",
            flight.leaders, flight.waiters_joined, flight.fanouts, flight.expired, flight.inflight
        );
        let t = oocq_core::theory_stats();
        let _ = write!(
            out,
            " | theory: decisions={} rewrites={} left_unsat={} right_unsat={} chase_atoms={} \
             functional_eqs={} dead_branches={}",
            t.decisions,
            t.left_rewrites,
            t.left_unsat,
            t.right_unsat,
            t.chase_atoms,
            t.functional_eqs,
            t.dead_branches
        );
        out
    }

    fn execute_inner(
        &self,
        req: &Request,
        capture: Option<&Capture>,
        cfg: &EngineConfig,
    ) -> Result<String, String> {
        let core = |e: oocq_core::CoreError| e.to_string();
        let wf = |e: oocq_query::WellFormedError| e.to_string();
        let session = || capture.ok_or_else(|| "internal: missing session snapshot".to_owned());
        let eng = Engine::new(cfg.clone());
        match req {
            Request::Satisfiable {
                session: name,
                query,
            } => {
                let ses = session()?;
                let s = ses.schema();
                let q = ses.query(0, query, name)?.query();
                let n = normalize(q, s).map_err(wf)?;
                let u = expand(s, &n).map_err(core)?;
                // On a constrained schema a branch can be plain-satisfiable
                // yet dead under the declared constraints (every terminal
                // class one of its variables could take is disjointness-
                // eliminated); report those as UNSAT with the theory's
                // reason.
                let theory = if s.has_constraints() {
                    Some(oocq_core::ConstraintTheory::for_schema(s))
                } else {
                    None
                };
                let mut out = String::new();
                for sub in &u {
                    match satisfiability(s, sub).map_err(core)? {
                        Satisfiability::Satisfiable => {
                            let dead = match &theory {
                                Some(t) => {
                                    use oocq_core::Theory as _;
                                    match t
                                        .compile(s, oocq_core::Side::Right, sub, &cfg.budget)
                                        .map_err(core)?
                                    {
                                        oocq_core::Compiled::Unsatisfiable(reason) => Some(reason),
                                        _ => None,
                                    }
                                }
                                None => None,
                            };
                            match dead {
                                Some(reason) => {
                                    let _ = writeln!(out, "UNSAT {} ({reason})", sub.display(s));
                                }
                                None => {
                                    let _ = writeln!(out, "SAT   {}", sub.display(s));
                                }
                            }
                        }
                        Satisfiability::Unsatisfiable(reason) => {
                            let _ = writeln!(out, "UNSAT {} ({reason})", sub.display(s));
                        }
                    }
                }
                Ok(out.trim_end().to_owned())
            }
            Request::Contains {
                session: name,
                q1,
                q2,
            } => {
                let ses = session()?;
                let (pa, pb) = (ses.query(0, q1, name)?, ses.query(1, q2, name)?);
                let holds = eng.dispatch(pa, pb).map_err(core)?;
                Ok(if holds { "holds" } else { "FAILS" }.to_owned())
            }
            Request::Equivalent {
                session: name,
                q1,
                q2,
            } => {
                let ses = session()?;
                let (pa, pb) = (ses.query(0, q1, name)?, ses.query(1, q2, name)?);
                let holds =
                    eng.dispatch(pa, pb).map_err(core)? && eng.dispatch(pb, pa).map_err(core)?;
                Ok(if holds { "holds" } else { "FAILS" }.to_owned())
            }
            Request::Explain {
                session: name,
                q1,
                q2,
            } => {
                let ses = session()?;
                let (pa, pb) = (ses.query(0, q1, name)?, ses.query(1, q2, name)?);
                let (s, qa, qb) = (ses.schema(), pa.query(), pb.query());
                if qa.is_terminal(s) && qb.is_terminal(s) {
                    let proof = eng.decide(pa, pb).map_err(core)?;
                    // Under a constraint theory the decision ran against the
                    // *compiled* left query (chase atoms, merged members), so
                    // witnesses reference its variables; recompute it for the
                    // rendering.
                    let qa_c = oocq_core::compiled_left(s, qa, cfg).map_err(core)?;
                    Ok(proof.render(s, &qa_c, qb).trim_end().to_owned())
                } else {
                    Ok(coverage_lines(&eng, pa, pb, q1).map_err(core)?.join("\n"))
                }
            }
            Request::Expand {
                session: name,
                query,
            } => {
                let ses = session()?;
                let s = ses.schema();
                let q = ses.query(0, query, name)?.query();
                let u = expand(s, &normalize(q, s).map_err(wf)?).map_err(core)?;
                let mut out = format!("{} branches", u.len());
                for sub in &u {
                    let _ = write!(out, "\n  {}", sub.display(s));
                }
                Ok(out)
            }
            Request::Minimize {
                session: name,
                query,
            } => {
                let ses = session()?;
                let s = ses.schema();
                let m = eng.minimize(ses.query(0, query, name)?).map_err(core)?;
                if m.is_empty() {
                    return Ok("(unsatisfiable: empty union)".to_owned());
                }
                let lines: Vec<String> = m
                    .queries()
                    .iter()
                    .map(|sub| sub.display(s).to_string())
                    .collect();
                Ok(lines.join("\n"))
            }
            Request::Run { text } => {
                let program = parse_program(text).map_err(|e| format!("parse error at {e}"))?;
                run_program_with(&program, cfg).map_err(core)
            }
            other => Err(format!("internal: `{other:?}` is not a decision request")),
        }
    }
}

/// Strip a `limit=` wrapper, returning the inner request and the limit.
pub(crate) fn split_limit(req: &Request) -> (&Request, Option<u64>) {
    match req {
        Request::Limited { limit, inner } => (inner.as_ref(), Some(*limit)),
        other => (other, None),
    }
}

/// Test-only failure injection: a `contains` whose left query name is
/// `__panic__` panics inside `execute`, letting the server tests exercise
/// worker panic isolation without a release-build backdoor.
#[cfg(test)]
fn panic_injection(req: &Request) {
    if let Request::Contains { q1, .. } = req {
        assert!(q1 != "__panic__", "injected worker panic");
    }
}

/// Test-only latency injection: a `contains` whose left query name is
/// `__slow__` sleeps before deciding. The reactor's coalescing test uses
/// this to hold its leader in flight long enough that every concurrent
/// identical request deterministically joins as a waiter, so the test can
/// pin *exactly one* computation without racing worker scheduling.
#[cfg(test)]
fn slow_injection(req: &Request) {
    if let Request::Contains { q1, .. } = req {
        if q1 == "__slow__" {
            std::thread::sleep(Duration::from_millis(1000));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    fn engine() -> ServiceEngine {
        ServiceEngine::with_cache(
            EngineConfig::serial(),
            Some(Arc::new(CanonicalDecisionCache::new(256))),
        )
    }

    fn decide(e: &ServiceEngine, line: &str) -> Result<String, String> {
        let req = parse_request(line).unwrap();
        let snap = e.snapshot_for(&req)?;
        e.execute(&req, snap.as_ref()).0
    }

    #[test]
    fn schema_query_contains_round_trip() {
        let e = engine();
        e.define_schema("s", "class C {}").unwrap();
        e.define_query("s", "Q", "{ x | x in C }").unwrap();
        assert_eq!(decide(&e, "contains s Q Q"), Ok("holds".to_owned()));
        assert_eq!(decide(&e, "equiv s Q Q"), Ok("holds".to_owned()));
        assert_eq!(
            decide(&e, "satisfiable s Q"),
            Ok("SAT   { x | x in C }".to_owned())
        );
        assert_eq!(decide(&e, "minimize s Q"), Ok("{ x | x in C }".to_owned()));
        assert!(decide(&e, "expand s Q").unwrap().starts_with("1 branches"));
    }

    #[test]
    fn unknown_sessions_and_queries_are_reported() {
        let e = engine();
        assert!(decide(&e, "contains nope A B")
            .unwrap_err()
            .contains("unknown session"));
        e.define_schema("s", "class C {}").unwrap();
        assert!(decide(&e, "contains s A B")
            .unwrap_err()
            .contains("unknown query `A`"));
        assert!(e
            .define_query("s", "Q", "{ x | x in Missing }")
            .unwrap_err()
            .contains("parse error"));
        assert!(e.define_schema("t", "class {").is_err());
    }

    #[test]
    fn redefining_a_schema_drops_stale_query_bindings() {
        let e = engine();
        e.define_schema("s", "class C {}").unwrap();
        e.define_query("s", "Q", "{ x | x in C }").unwrap();
        // A request captured before the redefinition still runs against
        // the handles it resolved.
        let req = parse_request("contains s Q Q").unwrap();
        let old = e.snapshot_for(&req).unwrap();
        e.define_schema("s", "class D {}").unwrap();
        assert_eq!(e.execute(&req, old.as_ref()).0, Ok("holds".to_owned()));
        assert_eq!(
            decide(&e, "contains s Q Q"),
            Err("unknown query `Q` in session `s`".to_owned())
        );
    }

    /// A session fills up to [`MAX_SESSION_QUERIES`] names, each bound
    /// in place at a cost that does not grow with the session (copying
    /// the session per binding made 40 000 names take minutes), and then
    /// refuses new names with a pinned error while rebinding still works.
    #[test]
    fn a_session_binds_names_in_place_up_to_its_cap() {
        let e = engine();
        e.define_schema("s", "class C {}").unwrap();
        let mut name = String::new();
        for i in 0..MAX_SESSION_QUERIES {
            name.clear();
            write!(name, "q{i}").unwrap();
            e.define_query("s", &name, "{ x | x in C }").unwrap();
        }
        assert_eq!(
            decide(&e, &format!("contains s q0 q{}", MAX_SESSION_QUERIES - 1)),
            Ok("holds".to_owned())
        );
        assert_eq!(
            e.define_query("s", "one_more", "{ x | x in C }"),
            Err(
                "session `s` already binds 131072 queries, the most one session may hold; \
                 redefine a bound name or use another session"
                    .to_owned()
            )
        );
        assert_eq!(
            e.define_query("s", "q7", "{ x | exists y: x in C & y in C & x != y }"),
            Ok("query q7 defined in session s".to_owned())
        );
        assert_eq!(decide(&e, "contains s q7 q0"), Ok("holds".to_owned()));
        assert_eq!(decide(&e, "contains s q0 q7"), Ok("FAILS".to_owned()));
    }

    /// An engine holds up to [`MAX_SESSIONS`] sessions, refuses a new
    /// name past that with a pinned error, and still lets an existing
    /// session be redefined.
    #[test]
    fn the_engine_holds_sessions_up_to_its_cap() {
        let e = engine();
        for i in 0..MAX_SESSIONS {
            e.define_schema(&format!("s{i}"), "class C {}").unwrap();
        }
        assert_eq!(
            e.define_schema("one_more", "class C {}"),
            Err(
                "cannot define session `one_more`: 1024 sessions are already defined, the \
                 most one daemon may hold; redefine an existing session"
                    .to_owned()
            )
        );
        assert_eq!(
            e.define_schema("s7", "class D {}\nclass E {}"),
            Ok("session s7: 2 classes".to_owned())
        );
        e.define_query("s7", "Q", "{ x | x in D }").unwrap();
        assert_eq!(decide(&e, "contains s7 Q Q"), Ok("holds".to_owned()));
        assert_eq!(
            decide(&e, "contains one_more Q Q"),
            Err(unknown_session("one_more"))
        );
    }

    /// A lookup over fixed `(name, value)` pairs, standing in for the
    /// environment.
    fn vars<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    /// The knob line of an engine with `threads` workers and defaults
    /// elsewhere, its cache `cache`.
    fn default_knobs(threads: usize, cache: &str) -> String {
        format!(
            "threads={threads} {cache} deadline_ms=off queue_bound={} max_conns=4096",
            16 * threads
        )
    }

    #[test]
    fn from_env_defaults_are_sane() {
        let e = ServiceEngine::from_vars(vars(&[]));
        assert!(e.pool_threads() >= 1);
        assert!(e.coalescing());
        assert!(!e.cache().unwrap().persistence_active());
        assert_eq!(
            e.knobs(),
            default_knobs(
                e.pool_threads(),
                "cache_capacity=4096 cache_dir=off disk_capacity=off"
            )
        );
    }

    /// Every knob resolves in `from_env`; persistence follows
    /// `OOCQ_CACHE_DIR` alone, and malformed numbers keep their defaults.
    #[test]
    fn from_env_resolves_every_knob() {
        let dir = std::env::temp_dir().join(format!("oocq-engine-{}-knobs", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_text = dir.display().to_string();
        let e = ServiceEngine::from_vars(vars(&[
            ("OOCQ_THREADS", " 3 "),
            ("OOCQ_CACHE_CAPACITY", "512"),
            ("OOCQ_CACHE_DIR", &dir_text),
            ("OOCQ_CACHE_DISK_CAPACITY", "77"),
            ("OOCQ_DEADLINE_MS", "250"),
            ("OOCQ_QUEUE_BOUND", "5"),
            ("OOCQ_MAX_CONNS", "9"),
        ]));
        assert_eq!(
            e.knobs(),
            format!(
                "threads=3 cache_capacity=512 cache_dir={dir_text} disk_capacity=77 \
                 deadline_ms=250 queue_bound=5 max_conns=9"
            )
        );
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
        let e = ServiceEngine::from_vars(vars(&[
            ("OOCQ_THREADS", "2x"),
            ("OOCQ_CACHE_CAPACITY", "00"),
            ("OOCQ_CACHE_DIR", "  "),
            ("OOCQ_DEADLINE_MS", "0"),
            ("OOCQ_MAX_CONNS", "-1"),
        ]));
        let off = "cache_capacity=off cache_dir=off disk_capacity=off";
        assert_eq!(e.knobs(), default_knobs(e.pool_threads(), off));
    }

    #[test]
    fn parse_positive_accepts_positive_integers_only() {
        assert_eq!(parse_positive(Some("4")), Some(4));
        assert_eq!(parse_positive(Some("1")), Some(1));
        assert_eq!(parse_positive(Some("  8  ")), Some(8), "whitespace trimmed");
    }

    #[test]
    fn parse_positive_rejects_malformed_values() {
        for bad in ["", "  ", "0", "-3", "abc", "4x", "3.5", "0x10", "+ 2"] {
            assert_eq!(parse_positive(Some(bad)), None, "input {bad:?}");
        }
        assert_eq!(parse_positive(None), None);
    }

    #[test]
    fn constraint_verb_flips_a_verdict_and_keeps_query_bindings() {
        let e = engine();
        e.define_schema(
            "s",
            "class P {} class Q {} class B {} class T1 : B {} class T2 : B, P, Q {}",
        )
        .unwrap();
        e.define_query("s", "Q1", "{ x | x in B }").unwrap();
        e.define_query("s", "Q2", "{ x | x in T1 }").unwrap();
        e.define_query("s", "D", "{ x | x in T2 }").unwrap();
        // Plainly false: the T2 branch of Q1 escapes Q2.
        assert_eq!(decide(&e, "contains s Q1 Q2"), Ok("FAILS".to_owned()));
        assert!(decide(&e, "satisfiable s D").unwrap().starts_with("SAT"));

        // The protocol verb parses to the engine method the servers route.
        let req = parse_request("constraint s disjoint P Q").unwrap();
        let Request::DefineConstraint { session, text } = req else {
            panic!("wrong parse: {req:?}");
        };
        let msg = e.define_constraint(&session, &text).unwrap();
        assert!(msg.contains("1 total"), "{msg}");
        // Bound queries survived the in-place schema swap, and the
        // constraint kills T2: containment flips, and the T2-range query is
        // now reported dead by `satisfiable`.
        assert_eq!(decide(&e, "contains s Q1 Q2"), Ok("holds".to_owned()));
        let sat = decide(&e, "satisfiable s D").unwrap();
        assert!(
            sat.starts_with("UNSAT") && sat.contains("disjointness"),
            "{sat}"
        );
        // Every expansion branch of Q1 is now covered (T2's vacuously).
        let proof = decide(&e, "explain s Q1 Q2").unwrap();
        assert!(!proof.contains("UNCOVERED"), "{proof}");
        // Terminal pairs take the certificate path (rendered against the
        // theory-compiled left query), and still decide under the theory.
        let cert = decide(&e, "explain s Q2 Q2").unwrap();
        assert!(cert.contains("holds"), "{cert}");
        // A trailing semicolon is tolerated but a duplicate declaration is
        // rejected; garbage and empty text are errors too.
        assert!(e.define_constraint("s", "disjoint P Q;").is_err());
        assert!(e.define_constraint("s", "nonsense P Q").is_err());
        assert!(e.define_constraint("s", "   ").is_err());
    }

    #[test]
    fn stats_report_includes_theory_counters() {
        let e = engine();
        let report = e.stats_report(&FlightStats::default(), 0);
        assert!(report.contains("theory: decisions="), "{report}");
        assert!(report.contains("dead_branches="), "{report}");
        // Memory-only cache: the persistence section says so explicitly.
        assert!(report.contains("| persist: off"), "{report}");
    }

    #[test]
    fn stats_report_shows_persistence_counters_when_active() {
        let dir = std::env::temp_dir().join(format!("oocq-engine-{}-stats", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        let e = ServiceEngine::with_cache(EngineConfig::serial(), Some(Arc::new(cache)));
        e.define_schema("s", "class C {}").unwrap();
        e.define_query("s", "Q", "{ x | x in C }").unwrap();
        decide(&e, "contains s Q Q").unwrap();
        let report = e.stats_report(&FlightStats::default(), 0);
        assert!(report.contains("persist: tier2_hits=0"), "{report}");
        assert!(report.contains("appended=1"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_requests_need_no_session() {
        let e = engine();
        let out = decide(
            &e,
            "run schema { class C {} } query Q = { x | x in C } check Q <= Q",
        )
        .unwrap();
        assert!(out.contains("check Q <= Q: holds"));
    }

    /// A session holding the shared `Big`/`R` deadline fixture.
    fn explosion_session(e: &ServiceEngine) {
        use crate::explosion;
        e.define_schema("s", explosion::SCHEMA).unwrap();
        e.define_query("s", "Big", &explosion::big()).unwrap();
        e.define_query("s", "R", explosion::R).unwrap();
    }

    #[test]
    fn limit_option_times_out_one_request_without_poisoning_the_next() {
        let e = engine();
        explosion_session(&e);
        let err = decide(&e, "limit=50 contains s Big R").unwrap_err();
        assert!(err.starts_with("timeout"), "{err}");
        // The budget was scoped to that request; the same engine still
        // decides, and an unlimited run of the same check completes.
        assert_eq!(decide(&e, "contains s R R"), Ok("holds".to_owned()));
    }

    /// The DESIGN.md §8 residual risk, now closed: an all-symmetric query
    /// sends the cache's canonical labeling into its factorial regime
    /// (10 interchangeable spokes = 10! orderings), and the labeling runs
    /// *before* the branch walk — so it must charge the same request budget
    /// and trip `err timeout` instead of hanging the worker.
    #[test]
    fn limit_option_bounds_the_canonical_labeling_backtracking() {
        let e = engine();
        e.define_schema("s", "class T1 {}\nclass T2 { A: {T1}; }")
            .unwrap();
        let vars: Vec<String> = (1..=10).map(|i| format!("m{i}")).collect();
        let body: String = vars
            .iter()
            .map(|v| format!(" & {v} in T1 & {v} in o.A"))
            .collect();
        let star = format!("{{ o | exists {}: o in T2{body} }}", vars.join(", "));
        e.define_query("s", "Star", &star).unwrap();
        e.define_query("s", "Small", "{ x | x in T1 }").unwrap();
        let err = decide(&e, "limit=1000 contains s Star Star").unwrap_err();
        assert!(err.starts_with("timeout"), "{err}");
        // The budget was scoped to that request; the worker still serves.
        assert_eq!(decide(&e, "contains s Small Small"), Ok("holds".to_owned()));
    }

    /// The same factorial labeling, one level down: each spoke ranges over
    /// its own class, so the request-level canonical form is cheap, but all
    /// ten classes expand to the one terminal `T` and the single expansion
    /// branch is fully symmetric. The cache keys that branch pair inside
    /// the Theorem 4.1 sweep, and that labeling must charge the request
    /// budget too.
    #[test]
    fn limit_option_bounds_the_labeling_of_expansion_branches() {
        let e = engine();
        let classes: Vec<String> = (1..=10).map(|i| format!("C{i}")).collect();
        let schema = format!(
            "{}\nclass T : {} {{}}\nclass T2 {{ A: {{T}}; }}",
            classes
                .iter()
                .map(|c| format!("class {c} {{}}"))
                .collect::<Vec<_>>()
                .join("\n"),
            classes.join(", ")
        );
        e.define_schema("s", &schema).unwrap();
        let vars: Vec<String> = (1..=10).map(|i| format!("m{i}")).collect();
        let body: String = vars
            .iter()
            .zip(&classes)
            .map(|(v, c)| format!(" & {v} in {c} & {v} in o.A"))
            .collect();
        let star = format!("{{ o | exists {}: o in T2{body} }}", vars.join(", "));
        e.define_query("s", "Star", &star).unwrap();
        let err = decide(&e, "limit=1000 contains s Star Star").unwrap_err();
        assert!(err.starts_with("timeout"), "{err}");
    }

    #[test]
    fn engine_deadline_applies_to_every_decision_request() {
        let e = engine().with_deadline(Some(Duration::from_millis(40)));
        explosion_session(&e);
        let start = Instant::now();
        let err = decide(&e, "contains s Big R").unwrap_err();
        assert!(err.starts_with("timeout"), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline must bound wall time"
        );
        // Cheap requests still fit inside the deadline.
        assert_eq!(decide(&e, "contains s R R"), Ok("holds".to_owned()));
    }

    #[test]
    fn stats_count_cache_hits_and_decisions() {
        let e = engine();
        e.define_schema("s", "class C {}").unwrap();
        e.define_query("s", "Q", "{ x | exists y: x in C & y in C & x != y }")
            .unwrap();
        let req = parse_request("contains s Q Q").unwrap();
        let snap = e.snapshot_for(&req).unwrap();
        let (r1, st1) = e.execute(&req, snap.as_ref());
        assert_eq!(r1, Ok("holds".to_owned()));
        assert!(st1.decided >= 1, "cold run must compute: {st1:?}");
        assert_eq!(st1.cached, 0);
        let (r2, st2) = e.execute(&req, snap.as_ref());
        assert_eq!(r2, r1);
        assert!(st2.cached >= 1, "warm run must hit: {st2:?}");
        assert_eq!(st2.decided, 0);
    }
}
