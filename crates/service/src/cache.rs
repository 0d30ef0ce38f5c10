//! The canonical-form decision cache.
//!
//! [`CanonicalDecisionCache`] implements [`oocq_core::DecisionCache`] with
//! isomorphism-invariant keys:
//!
//! * **Schema fingerprint.** A schema is keyed by its full rendered
//!   description (`Schema`'s `Display`, the DSL text `oocq-parser`
//!   accepts) — deterministic because tuple types iterate in `BTreeMap`
//!   order, and collision-free because the whole description is the key,
//!   not a hash of it. The fingerprint is rendered once per
//!   [`PreparedSchema`](oocq_core::PreparedSchema) and shared as an
//!   `Arc<str>`, so the many cache entries of one session share one
//!   allocation.
//! * **Containment entries** are keyed by
//!   `(fingerprint, canonical_form(Q₁), canonical_form(Q₂))`, read from
//!   the canonical forms memoized on the query handles. Containment is
//!   invariant under variable renaming of either side, so a renamed copy
//!   of a previously decided pair hits — which is exactly what the §4
//!   sweeps' O(n²) pairwise checks over expansion branches need.
//! * **Minimization entries** are keyed by
//!   `(fingerprint, rendered query)` — the *exact* query, because
//!   minimization output carries variable names back to the user and must
//!   stay bit-identical to an uncached run (see the
//!   [`DecisionCache`] soundness contract).
//!
//! Every key carries a hash computed once, when it is built, from hashes
//! memoized on the schema and the canonical forms ([`DecisionKey`]); the
//! tables hash that one `u64` and compare content on a match.
//!
//! Storage is a sharded `RwLock` LRU: keys hash to one of [`SHARD_COUNT`]
//! shards, reads take the shard's read lock and refresh the entry's access
//! stamp with a relaxed atomic store, writes take the write lock and evict
//! the least-recently-stamped entry once the shard exceeds its capacity
//! share. A global relaxed counter supplies the stamps.
//!
//! ## The persistent second tier
//!
//! With [`CanonicalDecisionCache::with_persistence`] (or `OOCQ_CACHE_DIR`
//! through [`ServiceEngine::from_env`](crate::ServiceEngine::from_env))
//! the cache keeps a disk-backed second tier behind the LRU: every
//! containment verdict — negative ones included, they cost exactly as
//! much to recompute — is
//! appended to the [`crate::persist`] log, and on startup the surviving
//! records pre-warm both the tier-2 index and the in-memory shards, so a
//! restarted daemon serves its old hot set warm. A tier-1 miss consults
//! the tier-2 index before reporting a miss; a tier-2 hit promotes the
//! entry back into the LRU and **counts as a cache hit**, so singleflight
//! followers see it exactly like a memory hit (never a leader
//! computation). Invalidation is wholesale by key identity: records carry
//! [`ENGINE_CACHE_VERSION`] and the schema/theory fingerprints, so an
//! engine bump or a constraint edit makes every old record unreachable
//! (and `stale`-counted, then compacted away). Minimization results are
//! *not* persisted: their values embed user-facing variable names and are
//! exact-keyed, so their replay value across restarts is near zero.
//!
//! Only one process may own a cache directory at a time; a second opener
//! loses the [`crate::persist::acquire_dir_lock`] race and silently runs
//! memory-only ([`CanonicalDecisionCache::persistence_active`] reports
//! which side of that race a cache landed on).

use crate::persist::{self, Frame};
use oocq_core::{DecisionCache, PreparedQuery, PreparedSchema};
use oocq_query::{key_hash, CanonicalQuery, UnionQuery};
use std::collections::hash_map::{Entry as MapEntry, RandomState};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Number of independent lock shards per table. Sixteen keeps write
/// contention negligible for worker pools an order of magnitude larger
/// while the per-shard eviction scans stay short.
pub const SHARD_COUNT: usize = 16;

/// Default total capacity (entries per table) when `OOCQ_CACHE_CAPACITY`
/// is unset.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Default bound on the persistent tier's index (distinct keys on disk)
/// when `OOCQ_CACHE_DISK_CAPACITY` is unset. Deliberately much larger
/// than the in-memory capacity: disk entries are a few hundred bytes and
/// exist precisely to outlive LRU eviction.
pub const DEFAULT_DISK_CAPACITY: usize = 65536;

/// Dead-record floor below which compaction is never triggered, so tiny
/// caches don't rewrite the log on every superseded verdict.
const COMPACT_MIN_DEAD: u64 = 8;

/// Engine/cache compatibility stamp written on every log frame.
///
/// A cached verdict is only replayable by an engine that would have
/// computed the same value; bump this whenever a decision-engine change
/// alters what a stored entry means (new verdict semantics, key shape
/// changes, theory rewrites) or the log's frame grammar changes. Version
/// 2 introduced theory-aware keys; version 3 logs each schema once, in a
/// schema frame, and verdicts by schema id.
pub const ENGINE_CACHE_VERSION: u32 = 3;

/// Parse `OOCQ_CACHE_CAPACITY`: `None` when it parses to zero (`0`, `00`,
/// ` 0 `), which turns the cache off; otherwise its value, or
/// [`DEFAULT_CAPACITY`] when it is unset or not a number.
pub(crate) fn parse_capacity(raw: Option<&str>) -> Option<usize> {
    match raw.map(|s| s.trim().parse::<usize>()) {
        Some(Ok(0)) => None,
        Some(Ok(n)) => Some(n),
        _ => Some(DEFAULT_CAPACITY),
    }
}

/// The `Hasher` of every table keyed by a [`DecisionKey`]: a key writes its
/// precomputed hash as one `u64`, which passes straight through instead of
/// being hashed a second time. `write` is only here because the trait
/// requires it; it folds bytes FNV-1a style.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// The `BuildHasher` of the tables keyed by [`DecisionKey`]s.
pub(crate) type KeyBuild = BuildHasherDefault<KeyHasher>;

/// Content equality of shared text, pointer first.
fn same(a: &Arc<str>, b: &Arc<str>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// What every decision key is scoped by: the schema fingerprint and the
/// theory fingerprint. Hashing a scope reads its text; only the writer's
/// set of logged schemas does that, once per appended verdict.
#[derive(Clone, Debug)]
pub(crate) struct KeyScope {
    schema: Arc<str>,
    /// The schema's theory fingerprint (its rendered constraint block).
    /// Redundant with the trailing lines of `schema` today, but compared
    /// separately so constrained and unconstrained verdicts can never
    /// collide even if fingerprint rendering changes.
    theory: Arc<str>,
}

impl KeyScope {
    fn of(schema: &PreparedSchema) -> KeyScope {
        KeyScope {
            schema: schema.fingerprint().clone(),
            theory: schema.schema().constraints_text().clone(),
        }
    }
}

impl PartialEq for KeyScope {
    fn eq(&self, other: &KeyScope) -> bool {
        same(&self.schema, &other.schema) && same(&self.theory, &other.theory)
    }
}

impl Eq for KeyScope {}

impl Hash for KeyScope {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.schema.hash(state);
        self.theory.hash(state);
    }
}

/// The identity of one decision, shared by the tier-1 tables, the tier-2
/// index and the singleflight table: its scope, its operands, and a hash
/// of both computed once, when the key is built, from the hashes memoized
/// on the schema and the canonical forms.
///
/// Hashing a key writes that one `u64`. Equality compares the content
/// (pointers first, then text and atoms), never the hash alone, so two
/// keys that collide on the hash still occupy separate entries. The derived
/// `==` compares fields in order, hash first; `Arc<CanonicalQuery>`'s `==`
/// checks the pointer before the atoms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionKey<Q> {
    hash: u64,
    scope: KeyScope,
    operands: Q,
}

/// A containment (or equivalence) key: the canonical forms of both sides,
/// shared with the query handles that labeled them. Containment is
/// invariant under renaming either side, so isomorphic copies share a key.
pub type ContainsKey = DecisionKey<(Arc<CanonicalQuery>, Arc<CanonicalQuery>)>;

/// A minimization key: the *exact* rendered query, because minimization
/// output carries the user's variable names back.
pub type MinimizeKey = DecisionKey<String>;

/// One hash over a schema fingerprint's hash and the operands' hashes:
/// SipHash under a key drawn once per process. The tables take their
/// buckets straight from this value, and the keys come from client
/// queries, so it must not be predictable from outside the process.
fn combine(schema_hash: u64, operands: &[u64]) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
        .hash_one((schema_hash, operands))
}

impl ContainsKey {
    /// The key of `q1 ⊆ q2` under `schema`, from memoized canonical forms.
    pub(crate) fn new(
        schema: &PreparedSchema,
        q1: Arc<CanonicalQuery>,
        q2: Arc<CanonicalQuery>,
    ) -> ContainsKey {
        ContainsKey::scoped(KeyScope::of(schema), schema.fingerprint_hash(), q1, q2)
    }

    /// The key of `q1 ⊆ q2` under `scope`, whose fingerprint hashes to
    /// `schema_hash`.
    fn scoped(
        scope: KeyScope,
        schema_hash: u64,
        q1: Arc<CanonicalQuery>,
        q2: Arc<CanonicalQuery>,
    ) -> ContainsKey {
        DecisionKey {
            hash: combine(schema_hash, &[q1.key_hash(), q2.key_hash()]),
            scope,
            operands: (q1, q2),
        }
    }

    fn of(p1: &PreparedQuery, p2: &PreparedQuery) -> ContainsKey {
        ContainsKey::new(
            p1.schema(),
            p1.canonical_form().clone(),
            p2.canonical_form().clone(),
        )
    }
}

impl MinimizeKey {
    /// The key of minimizing `p`: its exact rendered text.
    pub(crate) fn of(p: &PreparedQuery) -> MinimizeKey {
        let query = p.query().display(p.schema().schema()).to_string();
        DecisionKey {
            hash: combine(p.schema().fingerprint_hash(), &[key_hash(query.as_str())]),
            scope: KeyScope::of(p.schema()),
            operands: query,
        }
    }
}

impl<Q> DecisionKey<Q> {
    /// The hash computed when the key was built.
    pub(crate) fn key_hash(&self) -> u64 {
        self.hash
    }
}

impl<Q> Hash for DecisionKey<Q> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

struct Entry<V> {
    value: V,
    /// Last-access stamp from the cache's global clock; relaxed ordering is
    /// enough because stamps only steer eviction, never correctness.
    stamp: AtomicU64,
}

/// One shard of an LRU table.
type Shard<Q, V> = RwLock<HashMap<DecisionKey<Q>, Entry<V>, KeyBuild>>;

/// The shard index of a key: bits 32.. of its hash (see [`Lru::shard`]).
fn shard_of<Q>(key: &DecisionKey<Q>) -> usize {
    (key.hash >> 32) as usize % SHARD_COUNT
}

/// One sharded LRU table.
struct Lru<Q, V> {
    shards: Vec<Shard<Q, V>>,
    per_shard_cap: usize,
}

impl<Q: Eq + Clone, V: Clone> Lru<Q, V> {
    fn new(capacity: usize) -> Lru<Q, V> {
        Lru {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
            per_shard_cap: capacity.div_ceil(SHARD_COUNT).max(1),
        }
    }

    /// The shard from bits 32.. of the key's hash: the map inside takes
    /// its bucket from the low bits and its tag from the top seven, so
    /// neither repeats within a shard.
    fn shard(&self, key: &DecisionKey<Q>) -> &Shard<Q, V> {
        &self.shards[shard_of(key)]
    }

    fn get(&self, key: &DecisionKey<Q>, clock: &AtomicU64) -> Option<V> {
        let shard = self.shard(key).read().unwrap();
        shard.get(key).map(|e| {
            e.stamp.store(clock.fetch_add(1, Relaxed) + 1, Relaxed);
            e.value.clone()
        })
    }

    /// Insert, evicting the shard's least-recently-used entry on overflow.
    /// Returns whether an eviction happened.
    fn put(&self, key: DecisionKey<Q>, value: V, clock: &AtomicU64) -> bool {
        let mut shard = self.shard(&key).write().unwrap();
        let stamp = AtomicU64::new(clock.fetch_add(1, Relaxed) + 1);
        shard.insert(key, Entry { value, stamp });
        if shard.len() > self.per_shard_cap {
            let victim = shard
                .iter()
                .min_by_key(|(_, e)| e.stamp.load(Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                shard.remove(&k);
                return true;
            }
        }
        false
    }

    /// Fill an empty table with what [`Lru::put`] of every record in
    /// order would leave in it, without the evictions: per shard, the last
    /// `per_shard_cap` distinct keys of `records`, each with the value of
    /// its last record, stamped in the order of those last records.
    fn fill(&self, records: Vec<(DecisionKey<Q>, V)>, clock: &AtomicU64) {
        let mut room = [self.per_shard_cap; SHARD_COUNT];
        let mut keep = vec![false; records.len()];
        {
            let mut seen: HashSet<&DecisionKey<Q>, KeyBuild> = HashSet::default();
            for (i, (key, _)) in records.iter().enumerate().rev() {
                let shard = shard_of(key);
                if seen.insert(key) && room[shard] > 0 {
                    room[shard] -= 1;
                    keep[i] = true;
                }
            }
        }
        for ((key, value), kept) in records.into_iter().zip(keep) {
            if kept {
                let stamp = AtomicU64::new(clock.fetch_add(1, Relaxed) + 1);
                let mut shard = self
                    .shard(&key)
                    .write()
                    .expect("a tier-1 shard is poisoned");
                shard.insert(key, Entry { value, stamp });
            }
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }
}

/// A point-in-time snapshot of cache traffic (see
/// [`CanonicalDecisionCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Containment lookups answered from cache.
    pub contains_hits: u64,
    /// Containment lookups that missed.
    pub contains_misses: u64,
    /// Minimization lookups answered from cache.
    pub minimize_hits: u64,
    /// Minimization lookups that missed.
    pub minimize_misses: u64,
    /// Entries evicted by the LRU policy (both tables).
    pub evictions: u64,
}

/// A point-in-time snapshot of the persistent tier's counters (see
/// [`CanonicalDecisionCache::persist_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Containment lookups answered from the on-disk index after a tier-1
    /// miss (each also counts as a `contains_hits` cache hit).
    pub tier2_hits: u64,
    /// Records accepted into the index at startup (pre-warmed verdicts).
    pub loaded: u64,
    /// Records appended to the log since startup.
    pub appended: u64,
    /// Startup frames skipped for carrying a different
    /// [`ENGINE_CACHE_VERSION`].
    pub stale: u64,
    /// Corrupt spans skipped by log recovery plus verdicts whose schema id
    /// names no schema frame of the log (or two different ones) or whose
    /// canonical payload no longer decodes.
    pub corrupt: u64,
    /// Live records overwritten by a later verdict for the same key.
    pub superseded: u64,
    /// Writes refused because the index reached its disk capacity.
    pub rejected: u64,
    /// Times the log was rewritten from the live index.
    pub compactions: u64,
    /// Distinct keys currently in the on-disk index.
    pub entries: usize,
}

/// The schemas the log holds a frame for, with their
/// [`persist::schema_id`]s.
#[derive(Default)]
struct LoggedSchemas(HashMap<KeyScope, u64>);

impl LoggedSchemas {
    /// The id of `scope`, appending its schema frame to `out` (and
    /// returning `true`) the first time.
    fn id_for(&mut self, scope: &KeyScope, out: &mut Vec<u8>) -> (u64, bool) {
        if let Some(&id) = self.0.get(scope) {
            return (id, false);
        }
        persist::encode(
            &Frame::Schema {
                schema: &scope.schema,
                theory: &scope.theory,
            },
            out,
        );
        let id = persist::schema_id(&scope.schema, &scope.theory);
        self.0.insert(scope.clone(), id);
        (id, true)
    }
}

/// Append the verdict frame of `key` (after its schema frame, the first
/// time its schema is seen) to `out`. Returns whether a schema frame went
/// in.
fn encode_verdict(
    schemas: &mut LoggedSchemas,
    key: &ContainsKey,
    holds: bool,
    out: &mut Vec<u8>,
) -> bool {
    let (id, fresh) = schemas.id_for(&key.scope, out);
    let (q1, q2) = &key.operands;
    persist::encode(
        &Frame::Verdict {
            id,
            holds,
            q1: &q1.to_wire(),
            q2: &q2.to_wire(),
        },
        out,
    );
    fresh
}

/// Mutable half of the persistent tier, under one mutex: the verdict
/// index (what's on disk, last record wins), the schemas the log holds,
/// and the append handle.
struct Tier2State {
    /// Keys are boxed so a bucket is a pointer and a flag: the table's
    /// doublings then move 16-byte buckets, not whole keys. Lookups borrow
    /// a `&ContainsKey` through `Arc`'s `Borrow`.
    index: HashMap<Arc<ContainsKey>, bool, KeyBuild>,
    schemas: LoggedSchemas,
    writer: persist::LogWriter,
    /// Log frames no longer reachable through `index` (superseded,
    /// stale-versioned, duplicate, or corrupt). Drives compaction.
    dead: u64,
}

/// The disk-backed second tier. Held by the cache only when a directory
/// was configured *and* its single-writer lock was won.
struct Tier2 {
    state: Mutex<Tier2State>,
    /// The directory the log and its lock live in.
    dir: PathBuf,
    /// Bound on distinct on-disk keys; appends beyond it are rejected
    /// (the in-memory tier still serves them for this process's life).
    cap: usize,
    tier2_hits: AtomicU64,
    loaded: AtomicU64,
    appended: AtomicU64,
    stale: AtomicU64,
    corrupt: AtomicU64,
    superseded: AtomicU64,
    rejected: AtomicU64,
    compactions: AtomicU64,
    /// Held for the cache's lifetime; releasing it is what lets the next
    /// process adopt the directory.
    _lock: persist::DirLock,
}

impl Tier2 {
    fn lookup(&self, key: &ContainsKey) -> Option<bool> {
        let hit = self.state.lock().unwrap().index.get(key).copied();
        if hit.is_some() {
            self.tier2_hits.fetch_add(1, Relaxed);
        }
        hit
    }

    /// Persist one verdict. Appends are best-effort: an I/O failure costs
    /// one warm verdict after the next restart, never a wrong answer.
    fn record(&self, key: &ContainsKey, holds: bool) {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        match st.index.get(key) {
            // Already on disk with the same value: nothing to write.
            Some(&v) if v == holds => return,
            Some(_) => {
                self.superseded.fetch_add(1, Relaxed);
                st.dead += 1;
            }
            None => {
                if st.index.len() >= self.cap {
                    self.rejected.fetch_add(1, Relaxed);
                    return;
                }
            }
        }
        let mut frames = Vec::new();
        let fresh = encode_verdict(&mut st.schemas, key, holds, &mut frames);
        if st.writer.append(&frames).is_err() && fresh {
            // The schema frame may not have landed: the next verdict under
            // this schema writes it again.
            st.schemas.0.remove(&key.scope);
        }
        self.appended.fetch_add(1, Relaxed);
        st.index.insert(Arc::new(key.clone()), holds);
        if st.dead > (st.index.len() as u64).max(COMPACT_MIN_DEAD) {
            self.compact(st);
        }
    }

    /// Rewrite the log to exactly the live index — each schema frame just
    /// before the first verdict that uses it — and reset the dead count.
    fn compact(&self, st: &mut Tier2State) {
        let mut schemas = LoggedSchemas::default();
        let mut image = Vec::new();
        for (k, &v) in &st.index {
            encode_verdict(&mut schemas, k, v, &mut image);
        }
        if st.writer.rewrite(&image).is_ok() {
            st.schemas = schemas;
            st.dead = 0;
            self.compactions.fetch_add(1, Relaxed);
        }
    }

    fn stats(&self) -> PersistStats {
        let entries = self.state.lock().unwrap().index.len();
        PersistStats {
            tier2_hits: self.tier2_hits.load(Relaxed),
            loaded: self.loaded.load(Relaxed),
            appended: self.appended.load(Relaxed),
            stale: self.stale.load(Relaxed),
            corrupt: self.corrupt.load(Relaxed),
            superseded: self.superseded.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
            compactions: self.compactions.load(Relaxed),
            entries,
        }
    }
}

/// The shared, thread-safe decision cache of `oocq-serve`. See the module
/// docs for the keying scheme.
pub struct CanonicalDecisionCache {
    /// The capacity the cache was built with.
    capacity: usize,
    contains: Lru<(Arc<CanonicalQuery>, Arc<CanonicalQuery>), bool>,
    minimized: Lru<String, UnionQuery>,
    /// The disk-backed second tier, when configured and lock-winning.
    tier2: Option<Tier2>,
    clock: AtomicU64,
    contains_hits: AtomicU64,
    contains_misses: AtomicU64,
    minimize_hits: AtomicU64,
    minimize_misses: AtomicU64,
    evictions: AtomicU64,
}

impl CanonicalDecisionCache {
    /// A cache holding up to `capacity` entries in each of its two tables.
    pub fn new(capacity: usize) -> CanonicalDecisionCache {
        CanonicalDecisionCache {
            capacity,
            contains: Lru::new(capacity),
            minimized: Lru::new(capacity),
            tier2: None,
            clock: AtomicU64::new(0),
            contains_hits: AtomicU64::new(0),
            contains_misses: AtomicU64::new(0),
            minimize_hits: AtomicU64::new(0),
            minimize_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache with a disk-backed second tier rooted at `dir` (created if
    /// absent), holding up to `disk_capacity` distinct verdicts on disk.
    ///
    /// Surviving log records pre-warm both tiers before this returns. If
    /// another process already owns `dir` (single-writer lock), the cache
    /// comes up memory-only rather than corrupting the other writer's log
    /// — check [`CanonicalDecisionCache::persistence_active`]. `Err` is
    /// reserved for environmental failures (unwritable directory).
    pub fn with_persistence(
        capacity: usize,
        dir: &Path,
        disk_capacity: usize,
    ) -> io::Result<CanonicalDecisionCache> {
        let mut cache = CanonicalDecisionCache::new(capacity);
        std::fs::create_dir_all(dir)?;
        let Some(lock) = persist::acquire_dir_lock(dir)? else {
            return Ok(cache);
        };
        let log_path = dir.join(persist::LOG_NAME);
        let bytes = match std::fs::read(&log_path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (frames, report) = persist::scan_log(&bytes);
        let writer = persist::LogWriter::open(&log_path)?;
        cache.tier2 = Some(Tier2 {
            dir: dir.to_owned(),
            state: Mutex::new(Tier2State {
                index: HashMap::default(),
                schemas: LoggedSchemas::default(),
                writer,
                dead: report.stale,
            }),
            cap: disk_capacity.max(1),
            tier2_hits: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            stale: AtomicU64::new(report.stale),
            corrupt: AtomicU64::new(report.corrupt_spans),
            superseded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            _lock: lock,
        });
        cache.load_frames(&frames);
        Ok(cache)
    }

    /// Replay scanned log frames into the tier-2 index and pre-warm the
    /// in-memory shards, then compact away whatever didn't survive.
    fn load_frames(&self, frames: &[Frame<'_>]) {
        let t2 = self.tier2.as_ref().expect("load_frames requires tier2");
        let mut guard = t2.state.lock().unwrap();
        let st = &mut *guard;
        // Bind schema ids first, each schema decoded and hashed once. Ids
        // are derived from the frame's content, so a repeated frame is
        // merely dead weight; two different schemas under one id (an
        // FNV-1a collision) unbind it (`None`), so no verdict is ever read
        // under a schema other than the one it was written under.
        let mut bound: HashMap<u64, Option<(KeyScope, u64)>> = HashMap::new();
        for frame in frames {
            let &Frame::Schema { schema, theory } = frame else {
                continue;
            };
            match bound.entry(persist::schema_id(schema, theory)) {
                MapEntry::Vacant(e) => {
                    let scope = KeyScope {
                        schema: Arc::from(schema),
                        theory: Arc::from(theory),
                    };
                    e.insert(Some((scope, key_hash(schema))));
                }
                MapEntry::Occupied(mut e) => {
                    st.dead += 1;
                    let repeats = matches!(e.get(),
                        Some((s, _)) if &*s.schema == schema && &*s.theory == theory);
                    if !repeats {
                        e.insert(None);
                    }
                }
            }
        }
        let mut warm = Vec::new();
        for frame in frames {
            let &Frame::Verdict { id, holds, q1, q2 } = frame else {
                continue;
            };
            let decoded = CanonicalQuery::from_wire(q1).zip(CanonicalQuery::from_wire(q2));
            let (Some(Some((scope, hash))), Some((q1, q2))) = (bound.get(&id), decoded) else {
                t2.corrupt.fetch_add(1, Relaxed);
                st.dead += 1;
                continue;
            };
            let key = ContainsKey::scoped(scope.clone(), *hash, Arc::new(q1), Arc::new(q2));
            if st.index.insert(Arc::new(key.clone()), holds).is_some() {
                // A later record for the same key: the log held a dupe.
                st.dead += 1;
            } else if st.index.len() > t2.cap {
                st.index.remove(&key);
                t2.rejected.fetch_add(1, Relaxed);
                st.dead += 1;
                continue;
            } else {
                t2.loaded.fetch_add(1, Relaxed);
            }
            warm.push((key, holds));
        }
        // Pre-warm tier 1 with the records a put of each would have left
        // there. Overflow here is not a runtime eviction, so the counter
        // stays untouched.
        self.contains.fill(warm, &self.clock);
        st.schemas.0 = bound
            .into_iter()
            .filter_map(|(id, scope)| Some((scope?.0, id)))
            .collect();
        // Anything dead on disk right after a restart stays dead forever —
        // rewrite now so stale versions and corrupt spans don't linger.
        if st.dead > 0 || t2.corrupt.load(Relaxed) > 0 {
            t2.compact(st);
        }
    }

    /// Every verdict in the tier-2 index as `(schema, theory, q1 wire,
    /// q2 wire, holds)`.
    #[cfg(test)]
    pub(crate) fn tier2_facts(&self) -> Vec<(String, String, String, String, bool)> {
        let Some(t2) = &self.tier2 else {
            return Vec::new();
        };
        let st = t2.state.lock().unwrap();
        st.index
            .iter()
            .map(|(k, &holds)| {
                let (q1, q2) = &k.operands;
                let scope = &k.scope;
                let text = |t: &Arc<str>| t.to_string();
                (
                    text(&scope.schema),
                    text(&scope.theory),
                    q1.to_wire(),
                    q2.to_wire(),
                    holds,
                )
            })
            .collect()
    }

    /// The capacity the cache was built with (entries per table).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The disk tier's directory and capacity, when the tier is live.
    pub fn persist_dir(&self) -> Option<(&Path, usize)> {
        self.tier2.as_ref().map(|t2| (t2.dir.as_path(), t2.cap))
    }

    /// Is the disk-backed tier live (directory configured *and* its
    /// single-writer lock won)?
    pub fn persistence_active(&self) -> bool {
        self.tier2.is_some()
    }

    /// Counters of the persistent tier, `None` when memory-only.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.tier2.as_ref().map(Tier2::stats)
    }

    /// Traffic counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            contains_hits: self.contains_hits.load(Relaxed),
            contains_misses: self.contains_misses.load(Relaxed),
            minimize_hits: self.minimize_hits.load(Relaxed),
            minimize_misses: self.minimize_misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
        }
    }

    /// Total live entries across both tables (test/diagnostic aid).
    pub fn len(&self) -> usize {
        self.contains.len() + self.minimized.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tier-1 lookup, falling through to the on-disk index. A tier-2 hit
    /// is promoted into the LRU and counted as a cache hit — singleflight
    /// followers must see it exactly like a memory hit, never as a miss
    /// that elects a leader computation.
    fn lookup_contains(&self, key: &ContainsKey) -> Option<bool> {
        if let Some(v) = self.contains.get(key, &self.clock) {
            self.contains_hits.fetch_add(1, Relaxed);
            return Some(v);
        }
        if let Some(v) = self.tier2.as_ref().and_then(|t2| t2.lookup(key)) {
            if self.contains.put(key.clone(), v, &self.clock) {
                self.evictions.fetch_add(1, Relaxed);
            }
            self.contains_hits.fetch_add(1, Relaxed);
            return Some(v);
        }
        self.contains_misses.fetch_add(1, Relaxed);
        None
    }

    /// Store into tier 1 and (when live) append to the persistent log.
    fn store_contains(&self, key: ContainsKey, holds: bool) {
        if let Some(t2) = &self.tier2 {
            t2.record(&key, holds);
        }
        if self.contains.put(key, holds, &self.clock) {
            self.evictions.fetch_add(1, Relaxed);
        }
    }
}

// Prepared operands carry their keys' parts pre-computed and pre-hashed:
// the schema fingerprint and its hash on the PreparedSchema, the canonical
// forms (each with its hash) on the query handles.
impl DecisionCache for CanonicalDecisionCache {
    fn get_contains_prepared(&self, p1: &PreparedQuery, p2: &PreparedQuery) -> Option<bool> {
        self.lookup_contains(&ContainsKey::of(p1, p2))
    }

    fn put_contains_prepared(&self, p1: &PreparedQuery, p2: &PreparedQuery, holds: bool) {
        self.store_contains(ContainsKey::of(p1, p2), holds);
    }

    fn get_minimized_prepared(&self, p: &PreparedQuery) -> Option<UnionQuery> {
        let hit = self.minimized.get(&MinimizeKey::of(p), &self.clock);
        match hit {
            Some(_) => self.minimize_hits.fetch_add(1, Relaxed),
            None => self.minimize_misses.fetch_add(1, Relaxed),
        };
        hit
    }

    fn put_minimized_prepared(&self, p: &PreparedQuery, result: &UnionQuery) {
        if self
            .minimized
            .put(MinimizeKey::of(p), result.clone(), &self.clock)
        {
            self.evictions.fetch_add(1, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightKey;
    use oocq_query::{Query, QueryBuilder};
    use oocq_schema::{samples, Schema};

    /// A fresh handle for `q` under `s`.
    fn handle(s: &Schema, q: &Query) -> PreparedQuery {
        PreparedQuery::new(&PreparedSchema::new(s), q.clone())
    }

    fn get(cache: &CanonicalDecisionCache, s: &Schema, q1: &Query, q2: &Query) -> Option<bool> {
        cache.get_contains_prepared(&handle(s, q1), &handle(s, q2))
    }

    fn put(cache: &CanonicalDecisionCache, s: &Schema, q1: &Query, q2: &Query, holds: bool) {
        cache.put_contains_prepared(&handle(s, q1), &handle(s, q2), holds);
    }

    fn simple(s: &Schema, free: &str, bound: &str) -> Query {
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new(free);
        let x = b.free();
        let y = b.var(bound);
        b.range(x, [c]).range(y, [c]).neq_vars(x, y);
        b.build()
    }

    #[test]
    fn renamed_queries_hit_the_containment_cache() {
        let s = samples::single_class();
        let cache = CanonicalDecisionCache::new(64);
        let (q1, q2) = (simple(&s, "x", "y"), simple(&s, "x", "y"));
        assert_eq!(get(&cache, &s, &q1, &q2), None);
        put(&cache, &s, &q1, &q2, true);
        // Exact repeat hits.
        assert_eq!(get(&cache, &s, &q1, &q2), Some(true));
        // A renamed copy on both sides hits the same entry.
        let (r1, r2) = (simple(&s, "a", "b"), simple(&s, "u", "v"));
        assert_eq!(get(&cache, &s, &r1, &r2), Some(true));
        let st = cache.stats();
        assert_eq!(st.contains_hits, 2);
        assert_eq!(st.contains_misses, 1);
    }

    #[test]
    fn different_schemas_do_not_collide() {
        let s1 = samples::single_class();
        let s2 = samples::vehicle_rental();
        let cache = CanonicalDecisionCache::new(64);
        let q = simple(&s1, "x", "y");
        put(&cache, &s1, &q, &q, true);
        // Same queries under a different schema: distinct fingerprint.
        assert_eq!(get(&cache, &s2, &q, &q), None);
        assert_eq!(get(&cache, &s1, &q, &q), Some(true));
    }

    #[test]
    fn minimize_entries_are_exact_keyed() {
        let s = samples::single_class();
        let cache = CanonicalDecisionCache::new(64);
        let q = simple(&s, "x", "y");
        let renamed = simple(&s, "a", "b");
        let result = UnionQuery::single(q.clone());
        cache.put_minimized_prepared(&handle(&s, &q), &result);
        assert_eq!(cache.get_minimized_prepared(&handle(&s, &q)), Some(result));
        // Isomorphic but differently named: must MISS (output carries names).
        assert_eq!(cache.get_minimized_prepared(&handle(&s, &renamed)), None);
    }

    #[test]
    fn capacity_is_bounded_by_lru_eviction() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let cache = CanonicalDecisionCache::new(SHARD_COUNT); // 1 entry/shard
                                                              // Insert many structurally distinct keys: k-chains of inequalities
                                                              // anchored at the free variable (asymmetric, so canonicalization
                                                              // is cheap — unlike cliques, whose symmetry forces backtracking).
        let chain = |k: usize| {
            let mut b = QueryBuilder::new("x0");
            let vars: Vec<_> = std::iter::once(b.free())
                .chain((1..k).map(|i| b.var(&format!("x{i}"))))
                .collect();
            for &v in &vars {
                b.range(v, [c]);
            }
            for w in vars.windows(2) {
                b.neq_vars(w[0], w[1]);
            }
            b.build()
        };
        let probe = chain(1);
        for k in 1..=48 {
            put(&cache, &s, &chain(k), &probe, true);
        }
        assert!(cache.len() <= SHARD_COUNT, "len {} > cap", cache.len());
        assert!(cache.stats().evictions >= 48 - SHARD_COUNT as u64);
        // The newest entry survives in its shard.
        assert_eq!(get(&cache, &s, &chain(48), &probe), Some(true));
    }

    #[test]
    fn keys_with_one_forced_hash_stay_distinct_entries() {
        let s = samples::single_class();
        let cache = CanonicalDecisionCache::new(64);
        let key = |free: &str, k: usize| {
            let q = if k == 0 {
                simple(&s, free, "y")
            } else {
                chain(&s, k)
            };
            let mut key = ContainsKey::of(&handle(&s, &q), &handle(&s, &q));
            key.hash = 0x5eed;
            key
        };
        let (a, b) = (key("x", 0), key("x", 3));
        assert_eq!(a.key_hash(), b.key_hash());
        assert_ne!(a, b, "equality must not rest on the hash");
        assert_eq!(a, key("renamed", 0), "content equality still holds");
        cache.contains.put(a.clone(), true, &cache.clock);
        cache.contains.put(b.clone(), false, &cache.clock);
        assert_eq!(cache.contains.len(), 2);
        assert_eq!(cache.contains.get(&a, &cache.clock), Some(true));
        assert_eq!(cache.contains.get(&b, &cache.clock), Some(false));
        // The singleflight table keys on the same hash and content.
        let flights: crate::Singleflight<u8> = crate::Singleflight::new();
        let lead = crate::JoinOutcome::Lead;
        assert_eq!(flights.join(&FlightKey::Contains(a), || 0), lead);
        assert_eq!(flights.join(&FlightKey::Contains(b), || 0), lead);
    }

    /// Replay pre-warms tier 1 by [`Lru::fill`] instead of one `put` per
    /// replayed record. On a log four times the size of tier 1, with
    /// repeated keys whose later records carry other values, both leave
    /// the same entries, values and LRU order in every shard.
    #[test]
    fn prewarm_fill_leaves_what_replayed_puts_leave() {
        let s = samples::single_class();
        let keys: Vec<MinimizeKey> = (1..=96)
            .map(|k| MinimizeKey::of(&handle(&s, &chain(&s, k))))
            .collect();
        const TIER1: usize = 64;
        let records: Vec<(MinimizeKey, bool)> = (0..4 * TIER1)
            .map(|i| (keys[(i * 7 + i / 3) % keys.len()].clone(), i % 3 == 0))
            .collect();
        let clock = AtomicU64::new(0);
        let replayed: Lru<String, bool> = Lru::new(TIER1);
        for (key, value) in records.clone() {
            replayed.put(key, value, &clock);
        }
        let filled: Lru<String, bool> = Lru::new(TIER1);
        filled.fill(records, &clock);
        let by_stamp = |lru: &Lru<String, bool>| -> Vec<Vec<(String, bool)>> {
            lru.shards
                .iter()
                .map(|shard| {
                    let shard = shard.read().unwrap();
                    let mut entries: Vec<(u64, String, bool)> = shard
                        .iter()
                        .map(|(k, e)| (e.stamp.load(Relaxed), k.operands.clone(), e.value))
                        .collect();
                    entries.sort();
                    entries.into_iter().map(|(_, k, v)| (k, v)).collect()
                })
                .collect()
        };
        assert_eq!(replayed.len(), filled.len());
        assert!(filled.len() > TIER1 / 2, "tier 1 is mostly full");
        assert_eq!(by_stamp(&replayed), by_stamp(&filled));
    }

    #[test]
    fn a_contains_key_is_seven_words() {
        // Hash, two fingerprint `Arc<str>`s, two canonical-form `Arc`s: a
        // boxed tier-2 key stays in the allocation class it had before
        // the hash was cached.
        assert_eq!(std::mem::size_of::<ContainsKey>(), 7 * 8);
    }

    #[test]
    fn cache_capacity_is_parsed_in_one_place() {
        for zero in ["0", "00", " 0 ", "000\n"] {
            assert_eq!(
                parse_capacity(Some(zero)),
                None,
                "{zero:?} turns the cache off"
            );
        }
        assert_eq!(parse_capacity(Some("512")), Some(512));
        assert_eq!(parse_capacity(Some(" 64 ")), Some(64));
        for garbage in ["", "lots", "-1", "0x10", "1e3"] {
            assert_eq!(
                parse_capacity(Some(garbage)),
                Some(DEFAULT_CAPACITY),
                "{garbage:?}"
            );
        }
        assert_eq!(parse_capacity(None), Some(DEFAULT_CAPACITY));
    }

    #[test]
    fn constrained_and_unconstrained_schemas_never_share_entries() {
        // Same class structure, one with a constraint block: both the
        // fingerprint and the dedicated theory key component differ, so a
        // verdict cached for one can never answer for the other.
        let plain = oocq_parser::parse_schema("class P {} class Q {} class T : P, Q {}").unwrap();
        let constrained = oocq_parser::parse_schema(
            "class P {} class Q {} class T : P, Q {} constraint disjoint P Q;",
        )
        .unwrap();
        assert!(constrained.has_constraints());
        let cache = CanonicalDecisionCache::new(64);
        let c = plain.class_id("P").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [c]);
        let q = b.build();
        put(&cache, &plain, &q, &q, true);
        assert_eq!(get(&cache, &constrained, &q, &q), None);
        assert_eq!(get(&cache, &plain, &q, &q), Some(true));
    }

    // ---- persistent tier -------------------------------------------------

    use std::path::PathBuf;

    /// Fresh scratch directory for one persistence test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oocq-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A family of structurally distinct queries to populate caches with.
    fn chain(s: &Schema, k: usize) -> Query {
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x0");
        let vars: Vec<_> = std::iter::once(b.free())
            .chain((1..k).map(|i| b.var(&format!("x{i}"))))
            .collect();
        for &v in &vars {
            b.range(v, [c]);
        }
        for w in vars.windows(2) {
            b.neq_vars(w[0], w[1]);
        }
        b.build()
    }

    fn log_path(dir: &Path) -> PathBuf {
        dir.join(persist::LOG_NAME)
    }

    #[test]
    fn verdicts_survive_a_restart_and_oversize_sets_promote_from_tier2() {
        let dir = scratch("restart");
        let s = samples::single_class();
        let n = SHARD_COUNT * 3; // 3× the reloaded cache's tier-1 capacity
        {
            let cache = CanonicalDecisionCache::with_persistence(4096, &dir, 1024).unwrap();
            assert!(cache.persistence_active());
            let probe = chain(&s, 1);
            for k in 1..=n {
                put(&cache, &s, &chain(&s, k), &probe, k % 2 == 0);
            }
            assert_eq!(cache.persist_stats().unwrap().appended, n as u64);
        }
        // "Restart": a new cache over the same directory, with a tier-1 too
        // small to pre-warm everything — the overflow must still be served,
        // through tier-2 promotion.
        let cache = CanonicalDecisionCache::with_persistence(SHARD_COUNT, &dir, 1024).unwrap();
        let st = cache.persist_stats().unwrap();
        assert_eq!(st.loaded, n as u64);
        assert_eq!(st.entries, n);
        let probe = chain(&s, 1);
        for k in 1..=n {
            assert_eq!(
                get(&cache, &s, &chain(&s, k), &probe),
                Some(k % 2 == 0),
                "verdict for k={k} lost across restart"
            );
        }
        let st = cache.persist_stats().unwrap();
        assert!(st.tier2_hits > 0, "no lookup exercised tier-2 promotion");
        assert_eq!(cache.stats().contains_hits, n as u64);
        assert_eq!(cache.stats().contains_misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bumped_engine_version_yields_zero_stale_tier2_hits() {
        let dir = scratch("version");
        let s = samples::single_class();
        let q = simple(&s, "x", "y");
        {
            let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
            put(&cache, &s, &q, &q, true);
        }
        // Re-stamp every frame as if written by a different engine version
        // — the moral equivalent of bumping ENGINE_CACHE_VERSION without
        // rewriting history.
        let bytes = std::fs::read(log_path(&dir)).unwrap();
        let (frames, _) = persist::scan_log(&bytes);
        assert_eq!(frames.len(), 2, "one schema frame, one verdict");
        let mut rewritten = Vec::new();
        for frame in &frames {
            persist::encode_versioned(frame, ENGINE_CACHE_VERSION + 1, &mut rewritten);
        }
        std::fs::write(log_path(&dir), rewritten).unwrap();
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        let st = cache.persist_stats().unwrap();
        assert_eq!(st.stale, 2);
        assert_eq!(st.loaded, 0);
        assert_eq!(st.entries, 0);
        assert_eq!(get(&cache, &s, &q, &q), None);
        assert_eq!(cache.persist_stats().unwrap().tier2_hits, 0);
        // Load-time compaction purged the stale records from disk.
        let after = std::fs::read(log_path(&dir)).unwrap();
        assert!(
            persist::scan_log(&after).0.is_empty(),
            "stale records survived compaction"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One record in the version-2 layout: a single frame carrying the
    /// version, the verdict, and the schema, theory, q1 and q2 texts.
    fn v2_record(schema: &str, theory: &str, q1: &str, q2: &str, holds: bool) -> Vec<u8> {
        let mut payload = 2u32.to_le_bytes().to_vec();
        payload.push(u8::from(holds));
        for text in [schema, theory, q1, q2] {
            payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
            payload.extend_from_slice(text.as_bytes());
        }
        let mut frame = Vec::new();
        persist::seal(&payload, &mut frame);
        frame
    }

    #[test]
    fn a_version_2_log_is_stale_compacted_and_never_misread() {
        let dir = scratch("v2");
        let s = samples::single_class();
        let probe = chain(&s, 1);
        let fingerprint = s.to_string();
        let mut log = Vec::new();
        for k in 1..=5 {
            let q1 = oocq_query::canonical_form(&chain(&s, k)).to_wire();
            let q2 = oocq_query::canonical_form(&probe).to_wire();
            log.extend(v2_record(&fingerprint, "", &q1, &q2, k % 2 == 0));
        }
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(log_path(&dir), &log).unwrap();
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        let st = cache.persist_stats().unwrap();
        assert_eq!((st.stale, st.loaded, st.corrupt, st.entries), (5, 0, 0, 0));
        assert!(cache.is_empty(), "nothing pre-warmed from a v2 log");
        for k in 1..=5 {
            assert_eq!(get(&cache, &s, &chain(&s, k), &probe), None);
        }
        assert_eq!(cache.persist_stats().unwrap().tier2_hits, 0);
        assert_eq!(cache.persist_stats().unwrap().compactions, 1);
        assert!(std::fs::read(log_path(&dir)).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_schema_is_logged_once_and_verdicts_carry_its_id() {
        let dir = scratch("schema-frames");
        let s = samples::single_class();
        let probe = chain(&s, 1);
        {
            let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
            for k in 1..=4 {
                put(&cache, &s, &chain(&s, k), &probe, true);
            }
        }
        let bytes = std::fs::read(log_path(&dir)).unwrap();
        let (frames, _) = persist::scan_log(&bytes);
        let schemas = frames
            .iter()
            .filter(|f| matches!(f, Frame::Schema { .. }))
            .count();
        assert_eq!((schemas, frames.len()), (1, 5));
        let fingerprint = s.to_string();
        let text_copies = bytes
            .windows(fingerprint.len())
            .filter(|w| *w == fingerprint.as_bytes())
            .count();
        assert_eq!(text_copies, 1, "the schema text is written once");
        // A restart knows the schema is logged: one more verdict adds no
        // schema frame.
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        assert_eq!(cache.persist_stats().unwrap().compactions, 0);
        put(&cache, &s, &chain(&s, 5), &probe, false);
        drop(cache);
        let bytes = std::fs::read(log_path(&dir)).unwrap();
        let (frames, _) = persist::scan_log(&bytes);
        assert_eq!(frames.len(), 6);
        let id = persist::schema_id(&fingerprint, "");
        assert!(matches!(
            frames[5],
            Frame::Verdict { id: i, holds: false, .. } if i == id
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verdicts_resolve_only_to_their_own_schema_frame() {
        let dir = scratch("schema-ids");
        let s = samples::single_class();
        let probe = chain(&s, 1);
        let fingerprint = s.to_string();
        let other = "class D {}\n";
        let wire = |k| oocq_query::canonical_form(&chain(&s, k)).to_wire();
        let (w1, w2, w3, p) = (wire(1), wire(2), wire(3), wire(1));
        let verdict = |id, q1| Frame::Verdict {
            id,
            holds: true,
            q1,
            q2: &p,
        };
        let schema = |schema| Frame::Schema { schema, theory: "" };
        let frames = [
            schema(&fingerprint),
            verdict(persist::schema_id(&fingerprint, ""), &w1),
            // Written under `other`, whose frame comes later in the log.
            verdict(persist::schema_id(other, ""), &w2),
            // A repeated schema frame is dead weight, nothing more.
            schema(&fingerprint),
            // An id that names no schema frame of this log.
            verdict(7, &w3),
            schema(other),
        ];
        let mut log = Vec::new();
        for f in &frames {
            persist::encode(f, &mut log);
        }
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(log_path(&dir), &log).unwrap();
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        let st = cache.persist_stats().unwrap();
        assert_eq!((st.loaded, st.corrupt, st.compactions), (2, 1, 1));
        assert_eq!(get(&cache, &s, &chain(&s, 1), &probe), Some(true));
        assert_eq!(get(&cache, &s, &chain(&s, 2), &probe), None);
        assert_eq!(get(&cache, &s, &chain(&s, 3), &probe), None);
        // The load rewrote the log: two schema frames, two verdicts.
        let bytes = std::fs::read(log_path(&dir)).unwrap();
        assert_eq!(persist::scan_log(&bytes).0.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_changed_theory_fingerprint_never_hits_old_records() {
        let dir = scratch("theory");
        let plain = oocq_parser::parse_schema("class P {} class Q {} class T : P, Q {}").unwrap();
        let constrained = oocq_parser::parse_schema(
            "class P {} class Q {} class T : P, Q {} constraint disjoint P Q;",
        )
        .unwrap();
        let c = plain.class_id("P").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [c]);
        let q = b.build();
        {
            let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
            put(&cache, &plain, &q, &q, true);
        }
        // Restart under the *constrained* schema: the persisted verdict
        // must be unreachable (different schema and theory fingerprints),
        // while the original identity still replays.
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        assert_eq!(get(&cache, &constrained, &q, &q), None);
        assert_eq!(cache.persist_stats().unwrap().tier2_hits, 0);
        assert_eq!(get(&cache, &plain, &q, &q), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_tail_loses_at_most_the_final_record() {
        let dir = scratch("truncate");
        let s = samples::single_class();
        let probe = chain(&s, 1);
        {
            let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
            for k in 1..=3 {
                put(&cache, &s, &chain(&s, k), &probe, true);
            }
        }
        // Crash mid-append: chop bytes off the final frame.
        let mut bytes = std::fs::read(log_path(&dir)).unwrap();
        let full = bytes.len();
        bytes.truncate(full - 5);
        std::fs::write(log_path(&dir), bytes).unwrap();
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        let st = cache.persist_stats().unwrap();
        assert_eq!(st.loaded, 2);
        assert_eq!(st.corrupt, 1);
        assert_eq!(get(&cache, &s, &chain(&s, 1), &probe), Some(true));
        assert_eq!(get(&cache, &s, &chain(&s, 2), &probe), Some(true));
        assert_eq!(get(&cache, &s, &chain(&s, 3), &probe), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupted_checksum_skips_one_record_and_keeps_the_rest() {
        let dir = scratch("checksum");
        let s = samples::single_class();
        let probe = chain(&s, 1);
        let mut offsets = Vec::new();
        {
            let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
            for k in 1..=3 {
                put(&cache, &s, &chain(&s, k), &probe, true);
                offsets.push(std::fs::metadata(log_path(&dir)).unwrap().len() as usize);
            }
        }
        // Bit-rot inside the second record's payload.
        let mut bytes = std::fs::read(log_path(&dir)).unwrap();
        let mid = offsets[0] + (offsets[1] - offsets[0]) / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(log_path(&dir), bytes).unwrap();
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        let st = cache.persist_stats().unwrap();
        assert_eq!(st.loaded, 2);
        assert!(st.corrupt >= 1);
        assert_eq!(get(&cache, &s, &chain(&s, 1), &probe), Some(true));
        assert_eq!(get(&cache, &s, &chain(&s, 2), &probe), None);
        assert_eq!(get(&cache, &s, &chain(&s, 3), &probe), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_contended_lockfile_degrades_the_loser_to_memory_only() {
        let dir = scratch("contend");
        let s = samples::single_class();
        let q = simple(&s, "x", "y");
        let winner = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        assert!(winner.persistence_active());
        // Second opener of the same directory: no error, no corruption —
        // it simply runs memory-only.
        let loser = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        assert!(!loser.persistence_active());
        assert_eq!(loser.persist_stats(), None);
        put(&loser, &s, &q, &q, false);
        assert_eq!(get(&loser, &s, &q, &q), Some(false));
        // Releasing the winner frees the directory for the next process.
        drop(winner);
        let heir = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        assert!(heir.persistence_active());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseded_verdicts_trigger_compaction() {
        let dir = scratch("compact");
        let s = samples::single_class();
        let q = simple(&s, "x", "y");
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, 64).unwrap();
        // Flip one key's verdict repeatedly: every flip appends a record
        // that kills the previous one.
        for i in 0..2 * (COMPACT_MIN_DEAD + 2) {
            put(&cache, &s, &q, &q, i % 2 == 0);
        }
        let st = cache.persist_stats().unwrap();
        assert!(st.superseded >= COMPACT_MIN_DEAD);
        assert!(st.compactions >= 1, "dead records never compacted");
        assert_eq!(st.entries, 1);
        // The log holds the live set (plus at most the post-compaction
        // appends), not the whole flip history.
        let bytes = std::fs::read(log_path(&dir)).unwrap();
        let verdicts = persist::scan_log(&bytes)
            .0
            .iter()
            .filter(|f| matches!(f, Frame::Verdict { .. }))
            .count();
        assert!(
            verdicts as u64 <= 1 + COMPACT_MIN_DEAD + 1,
            "log kept {verdicts} records for one live key"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_capacity_bounds_the_index_and_rejections_are_counted() {
        let dir = scratch("diskcap");
        let s = samples::single_class();
        let probe = chain(&s, 1);
        let cap = 4;
        {
            let cache = CanonicalDecisionCache::with_persistence(64, &dir, cap).unwrap();
            for k in 1..=10 {
                put(&cache, &s, &chain(&s, k), &probe, true);
            }
            let st = cache.persist_stats().unwrap();
            assert_eq!(st.entries, cap);
            assert_eq!(st.rejected, 10 - cap as u64);
            // Rejected writes still serve from tier 1 for this process.
            assert_eq!(get(&cache, &s, &chain(&s, 9), &probe), Some(true));
        }
        let cache = CanonicalDecisionCache::with_persistence(64, &dir, cap).unwrap();
        assert_eq!(cache.persist_stats().unwrap().entries, cap);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
