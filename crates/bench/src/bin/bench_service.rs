//! Emits `BENCH_service.json` (experiment **B8**): cold-versus-warm
//! request latency of the `oocq-serve` engine with the canonical-form
//! decision cache, on the `Strategy::Full` containment family `full(m, f)`
//! (EXPERIMENTS.md B7) plus a multi-branch minimization workload.
//!
//! * **cold** — a fresh [`ServiceEngine`] (empty cache) per call: the
//!   request pays the full Theorem 3.1 branch enumeration (or the §4
//!   minimization pipeline).
//! * **warm** — one shared engine, warmed once: the request reduces to a
//!   schema fingerprint + canonical-form lookup.
//!
//! The binary also asserts the soundness contract end to end: cached and
//! cache-disabled engines must return byte-identical payloads, and the
//! warm path must be at least 5× faster than cold on every containment
//! entry (the acceptance bar for the cache actually short-circuiting the
//! branch engine).
//!
//! Usage: `bench_service [OUT.json]` (default `BENCH_service.json`).
//! Honors `OOCQ_BENCH_SAMPLES`, `OOCQ_BENCH_MIN_SAMPLE_MS`,
//! `OOCQ_BENCH_QUICK`.

use oocq_bench::{Harness, Stats};
use oocq_core::EngineConfig;
use oocq_service::{parse_request, CanonicalDecisionCache, Request, ServiceEngine};
use std::sync::Arc;

/// One terminal class `C` with a set attribute `items : {C}`, as schema
/// DSL text (the daemon receives schemas as text).
const SCHEMA: &str = "class C { items: {C}; }";

/// The left query of the `full(m, f)` containment family (see
/// EXPERIMENTS.md B7): `m` members, one pinned non-member, `f` floaters.
fn q1_text(members: usize, floaters: usize) -> String {
    let mut vars = Vec::new();
    let mut atoms = Vec::new();
    for i in 0..members {
        vars.push(format!("y{i}"));
        atoms.push(format!("y{i} in C & y{i} in x.items"));
    }
    vars.push("u".into());
    atoms.push("u in C & u not in x.items".into());
    for i in 0..floaters {
        vars.push(format!("z{i}"));
        atoms.push(format!("z{i} in C"));
    }
    format!(
        "{{ x | exists {}: x in C & {} }}",
        vars.join(", "),
        atoms.join(" & ")
    )
}

/// The right query: membership + non-membership + inequality forces
/// `Strategy::Full`.
const Q2: &str =
    "{ x | exists y, u2: x in C & y in C & u2 in C & y in x.items & u2 not in x.items & y != u2 }";

/// A positive query over a 3-way partitioned hierarchy whose expansion has
/// several branches, so cold minimization runs the pairwise §4 pipeline.
const MIN_SCHEMA: &str =
    "class V {} class A : V {} class B : V {} class D : V {} class K { r: {V}; } class S : K { r: {A}; }";
const MIN_QUERY: &str = "{ x | exists y, z: x in V & y in S & z in V & x in y.r & z in y.r }";

/// Build a ready engine: session `s`, queries `P` (left), `Q` (right),
/// `M` (minimization workload).
fn fresh_engine(cache: bool, members: usize, floaters: usize) -> ServiceEngine {
    let cache = cache.then(|| Arc::new(CanonicalDecisionCache::new(4096)));
    let e = ServiceEngine::with_cache(EngineConfig::serial(), cache);
    e.define_schema("s", SCHEMA).unwrap();
    e.define_query("s", "P", &q1_text(members, floaters))
        .unwrap();
    e.define_query("s", "Q", Q2).unwrap();
    e.define_schema("m", MIN_SCHEMA).unwrap();
    e.define_query("m", "M", MIN_QUERY).unwrap();
    e
}

/// Execute one request line against an engine, returning the payload.
fn exec(e: &ServiceEngine, line: &str) -> String {
    let req: Request = parse_request(line).unwrap();
    let snap = e.snapshot_for(&req).unwrap();
    let (result, _) = e.execute(&req, snap.as_ref());
    result.unwrap_or_else(|err| panic!("`{line}` failed: {err}"))
}

struct Entry {
    name: String,
    request: &'static str,
    cold: Stats,
    warm: Stats,
    members: usize,
    floaters: usize,
    assert_speedup: bool,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_service.json".into());
    let h = Harness::from_env();

    let mut entries = Vec::new();
    let workloads: [(&str, &'static str, usize, usize, bool); 4] = [
        ("full_m2_f2", "contains s P Q", 2, 2, true),
        ("full_m2_f3", "contains s P Q", 2, 3, true),
        ("full_m3_f3", "contains s P Q", 3, 3, true),
        ("minimize_partition", "minimize m M", 3, 3, false),
    ];
    for (name, request, members, floaters, assert_speedup) in workloads {
        // Contract: the cache must be decision-invisible.
        let with_cache = fresh_engine(true, members, floaters);
        let without = fresh_engine(false, members, floaters);
        let payload = exec(&with_cache, request);
        assert_eq!(
            payload,
            exec(&without, request),
            "{name}: cached payload differs from uncached"
        );
        assert_eq!(
            payload,
            exec(&with_cache, request),
            "{name}: warm payload differs from cold"
        );

        let cold = h.run("bench_service", &format!("{name}/cold"), || {
            let e = fresh_engine(true, members, floaters);
            exec(&e, request)
        });
        let warm_engine = fresh_engine(true, members, floaters);
        exec(&warm_engine, request); // warm the cache once
        let warm = h.run("bench_service", &format!("{name}/warm"), || {
            exec(&warm_engine, request)
        });
        let stats = warm_engine.cache().unwrap().stats();
        assert!(
            stats.contains_hits + stats.minimize_hits > 0,
            "{name}: warm runs never hit the cache: {stats:?}"
        );
        if assert_speedup {
            assert!(
                cold.median_ns >= 5.0 * warm.median_ns,
                "{name}: warm must be >= 5x faster than cold \
                 (cold {}, warm {})",
                Stats::human(cold.median_ns),
                Stats::human(warm.median_ns),
            );
        }
        entries.push(Entry {
            name: name.to_owned(),
            request,
            cold,
            warm,
            members,
            floaters,
            assert_speedup,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"experiment\": \"B8\",\n");
    json.push_str("  \"workload\": \"service_canonical_cache_cold_vs_warm\",\n");
    json.push_str(&format!(
        "  \"measurement\": {{ \"samples\": {}, \"min_sample_ns\": {} }},\n",
        h.samples, h.min_sample_ns
    ));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"request\": \"{}\", \"members\": {}, \"floaters\": {}, \
             \"cold_median_ns\": {:.0}, \"warm_median_ns\": {:.0}, \
             \"warm_speedup\": {:.1}, \"speedup_floor\": {} }}{}\n",
            json_escape(&e.name),
            json_escape(e.request),
            e.members,
            e.floaters,
            e.cold.median_ns,
            e.warm.median_ns,
            e.cold.median_ns / e.warm.median_ns,
            if e.assert_speedup { 5 } else { 1 },
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
}
