//! A caching optimizer session: the production entry point.
//!
//! An OODB query processor asks the same questions repeatedly — minimize
//! this query, is this rewrite sound, is this plan's source query contained
//! in the materialized view's query. [`Optimizer`] wraps one schema and
//! memoizes minimization and containment decisions by query structure, so a
//! workload of recurring queries pays each decision once.
//!
//! The session is a thin façade over [`Engine`]: every miss prepares the
//! operand queries once (memoized per session) and decides through the
//! engine, so the session-local memo sits in front of the engine's real
//! [`DecisionCache`](crate::DecisionCache) — a decision made here populates
//! the shared cache, and a decision another session already made is a cache
//! hit here — and every decision runs under the engine's configuration.

use crate::branch::EngineConfig;
use crate::engine::{Engine, PreparedQuery, PreparedSchema};
use crate::error::CoreError;
use oocq_query::{Query, UnionQuery};
use oocq_schema::Schema;
use std::collections::HashMap;

/// Cache hit/miss counters (see [`Optimizer::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Minimization cache hits.
    pub minimize_hits: usize,
    /// Minimization cache misses (pipeline actually ran).
    pub minimize_misses: usize,
    /// Containment cache hits.
    pub contains_hits: usize,
    /// Containment cache misses.
    pub contains_misses: usize,
}

/// A memoizing façade over the §3/§4 decision procedures for one schema.
pub struct Optimizer<'s> {
    schema: &'s Schema,
    engine: Engine,
    prepared_schema: PreparedSchema,
    prepared: HashMap<Query, PreparedQuery>,
    minimized: HashMap<Query, UnionQuery>,
    containment: HashMap<(Query, Query), bool>,
    stats: OptimizerStats,
}

impl<'s> Optimizer<'s> {
    /// Start a session for a schema over the default engine (no shared
    /// cache).
    pub fn new(schema: &'s Schema) -> Optimizer<'s> {
        Optimizer::with_engine(schema, Engine::from_env())
    }

    /// Start a session deciding through an explicit engine — the way to
    /// hand a session a shared [`DecisionCache`](crate::DecisionCache) or a
    /// fixed thread count.
    pub fn with_engine(schema: &'s Schema, engine: Engine) -> Optimizer<'s> {
        Optimizer {
            schema,
            prepared_schema: PreparedSchema::new(schema),
            engine,
            prepared: HashMap::new(),
            minimized: HashMap::new(),
            containment: HashMap::new(),
            stats: OptimizerStats::default(),
        }
    }

    /// The schema this session optimizes against.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// The engine this session decides through.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The engine configuration this session decides under.
    pub fn config(&self) -> &EngineConfig {
        self.engine.config()
    }

    /// The prepared handle for a query, derived once per session.
    fn prepared(&mut self, q: &Query) -> PreparedQuery {
        if let Some(p) = self.prepared.get(q) {
            return p.clone();
        }
        let p = PreparedQuery::new(&self.prepared_schema, q.clone());
        self.prepared.insert(q.clone(), p.clone());
        p
    }

    /// Search-space-optimal form of a positive conjunctive query
    /// ([`minimize_positive`](crate::minimize_positive)), memoized by query
    /// structure.
    pub fn minimize(&mut self, q: &Query) -> Result<UnionQuery, CoreError> {
        if let Some(hit) = self.minimized.get(q) {
            self.stats.minimize_hits += 1;
            return Ok(hit.clone());
        }
        self.stats.minimize_misses += 1;
        let p = self.prepared(q);
        let m = self.engine.minimize(&p)?;
        self.minimized.insert(q.clone(), m.clone());
        Ok(m)
    }

    /// Containment of terminal conjunctive queries
    /// ([`contains_terminal`](crate::contains_terminal)), memoized per
    /// ordered pair.
    pub fn contains(&mut self, q1: &Query, q2: &Query) -> Result<bool, CoreError> {
        let key = (q1.clone(), q2.clone());
        if let Some(&hit) = self.containment.get(&key) {
            self.stats.contains_hits += 1;
            return Ok(hit);
        }
        self.stats.contains_misses += 1;
        let p1 = self.prepared(q1);
        let p2 = self.prepared(q2);
        let r = if q1.is_terminal(self.schema) && q2.is_terminal(self.schema) {
            self.engine.contains(&p1, &p2)?
        } else {
            self.engine.contains_positive(&p1, &p2)?
        };
        self.containment.insert(key, r);
        Ok(r)
    }

    /// Equivalence via two memoized containment checks.
    pub fn equivalent(&mut self, q1: &Query, q2: &Query) -> Result<bool, CoreError> {
        Ok(self.contains(q1, q2)? && self.contains(q2, q1)?)
    }

    /// Cache counters so far.
    pub fn stats(&self) -> OptimizerStats {
        self.stats
    }

    /// Drop all cached decisions and prepared artifacts (e.g. after
    /// swapping workloads). The engine's shared cache, if any, is not
    /// touched — it belongs to every session wired to it.
    pub fn clear(&mut self) {
        self.prepared.clear();
        self.minimized.clear();
        self.containment.clear();
        self.stats = OptimizerStats::default();
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
    fn minimization_is_memoized() {
        let s = samples::vehicle_rental();
        let mut opt = Optimizer::new(&s);
        let q = vehicle_query(&s);
        let a = opt.minimize(&q).unwrap();
        let b = opt.minimize(&q).unwrap();
        assert_eq!(a, b);
        let stats = opt.stats();
        assert_eq!((stats.minimize_misses, stats.minimize_hits), (1, 1));
    }

    #[test]
    fn containment_is_memoized_per_direction() {
        let s = samples::vehicle_rental();
        let mut opt = Optimizer::new(&s);
        let q = vehicle_query(&s);
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        let loose = b.build();
        assert!(opt.contains(&q, &loose).unwrap());
        assert!(opt.contains(&q, &loose).unwrap());
        assert!(!opt.contains(&loose, &q).unwrap());
        let stats = opt.stats();
        assert_eq!((stats.contains_misses, stats.contains_hits), (2, 1));
        // Equivalence reuses both cached directions (forward is true, so
        // the backward lookup also runs — both hits).
        assert!(!opt.equivalent(&q, &loose).unwrap());
        assert_eq!(opt.stats().contains_hits, 3);
    }

    #[test]
    fn non_terminal_queries_route_through_positive_containment() {
        let s = samples::vehicle_rental();
        let mut opt = Optimizer::new(&s);
        let q = vehicle_query(&s); // x ranges over non-terminal Vehicle
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [s.class_id("Auto").unwrap()]);
        let autos = b.build();
        assert!(opt.contains(&q, &autos).unwrap() || opt.contains(&autos, &q).unwrap());
    }

    #[test]
    fn clear_resets_everything() {
        let s = samples::vehicle_rental();
        let mut opt = Optimizer::new(&s);
        let q = vehicle_query(&s);
        opt.minimize(&q).unwrap();
        opt.clear();
        assert_eq!(opt.stats(), OptimizerStats::default());
        opt.minimize(&q).unwrap();
        assert_eq!(opt.stats().minimize_misses, 1);
    }

    /// A decision cache that counts traffic: enough to observe an
    /// `Optimizer` session feeding and hitting the shared cache.
    struct SharedCache {
        contains: std::sync::Mutex<HashMap<(String, String), bool>>,
        minimized: std::sync::Mutex<HashMap<String, UnionQuery>>,
        contains_puts: std::sync::atomic::AtomicUsize,
        contains_hits: std::sync::atomic::AtomicUsize,
        minimize_puts: std::sync::atomic::AtomicUsize,
        minimize_hits: std::sync::atomic::AtomicUsize,
    }

    impl SharedCache {
        fn new() -> Self {
            SharedCache {
                contains: std::sync::Mutex::new(HashMap::new()),
                minimized: std::sync::Mutex::new(HashMap::new()),
                contains_puts: 0.into(),
                contains_hits: 0.into(),
                minimize_puts: 0.into(),
                minimize_hits: 0.into(),
            }
        }
    }

    impl crate::DecisionCache for SharedCache {
        fn get_contains(&self, schema: &Schema, q1: &Query, q2: &Query) -> Option<bool> {
            let key = (
                q1.display(schema).to_string(),
                q2.display(schema).to_string(),
            );
            let hit = self.contains.lock().unwrap().get(&key).copied();
            if hit.is_some() {
                self.contains_hits
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            hit
        }
        fn put_contains(&self, schema: &Schema, q1: &Query, q2: &Query, holds: bool) {
            self.contains_puts
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let key = (
                q1.display(schema).to_string(),
                q2.display(schema).to_string(),
            );
            self.contains.lock().unwrap().insert(key, holds);
        }
        fn get_minimized(&self, schema: &Schema, q: &Query) -> Option<UnionQuery> {
            let hit = self
                .minimized
                .lock()
                .unwrap()
                .get(&q.display(schema).to_string())
                .cloned();
            if hit.is_some() {
                self.minimize_hits
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            hit
        }
        fn put_minimized(&self, schema: &Schema, q: &Query, result: &UnionQuery) {
            self.minimize_puts
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.minimized
                .lock()
                .unwrap()
                .insert(q.display(schema).to_string(), result.clone());
        }
    }

    #[test]
    fn sessions_share_the_engine_decision_cache() {
        use std::sync::atomic::Ordering::Relaxed;
        let s = samples::vehicle_rental();
        let cache = std::sync::Arc::new(SharedCache::new());
        let q = vehicle_query(&s);
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        let loose = b.build();

        // Session 1 decides cold and populates the shared cache.
        let engine1 = Engine::serial().with_cache(cache.clone());
        let mut opt1 = Optimizer::with_engine(&s, engine1);
        let held = opt1.contains(&q, &loose).unwrap();
        let minimized = opt1.minimize(&q).unwrap();
        assert_eq!(cache.contains_hits.load(Relaxed), 0);
        assert!(cache.contains_puts.load(Relaxed) >= 1);
        assert_eq!(cache.minimize_puts.load(Relaxed), 1);

        // Session 2, same cache: its misses are answered by the cache, not
        // recomputed — and the answers match session 1's.
        let engine2 = Engine::serial().with_cache(cache.clone());
        let mut opt2 = Optimizer::with_engine(&s, engine2);
        assert_eq!(opt2.contains(&q, &loose).unwrap(), held);
        assert_eq!(opt2.minimize(&q).unwrap(), minimized);
        assert!(cache.contains_hits.load(Relaxed) >= 1);
        assert_eq!(cache.minimize_hits.load(Relaxed), 1);
        // Session 2's own memo recorded misses (the shared cache is below
        // the session memo, not inside it).
        assert_eq!(opt2.stats().contains_misses, 1);
        assert_eq!(opt2.stats().minimize_misses, 1);
    }

    #[test]
    fn sessions_honor_the_engine_thread_config() {
        // The pool size rides along in the session's config and changes no
        // decision.
        let s = samples::vehicle_rental();
        let q = vehicle_query(&s);
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [s.class_id("Vehicle").unwrap()]);
        let loose = b.build();

        let mut serial = Optimizer::with_engine(&s, Engine::serial());
        let mut pooled = Optimizer::with_engine(&s, Engine::new(EngineConfig::with_threads(8)));
        assert_eq!(pooled.config().threads, 8);
        for (a, b) in [(&q, &loose), (&loose, &q), (&q, &q)] {
            assert_eq!(
                serial.contains(a, b).unwrap(),
                pooled.contains(a, b).unwrap()
            );
        }
        assert_eq!(serial.minimize(&q).unwrap(), pooled.minimize(&q).unwrap());
    }
}
