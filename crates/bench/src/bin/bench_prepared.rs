//! Emits `BENCH_prepared.json` (experiment **B9**): repeated-decision
//! latency of a warm [`oocq_core::Engine`] session against a cold one, on
//! the `Strategy::Full` containment family `full(m, f)` (EXPERIMENTS.md
//! B7) plus a multi-branch minimization workload and an
//! isomorphic-equivalence workload.
//!
//! * **unprepared** — a cold `Engine` with no decision cache that builds
//!   fresh `PreparedSchema`/`PreparedQuery` handles inside every call, the
//!   way the one-shot free functions do, re-deriving analysis, terminal
//!   classes, branch indexes, and canonical forms per call.
//! * **prepared** — one warm `Engine` session holding `PreparedQuery` handles:
//!   artifacts are memoized on the handles and decisions are memoized in
//!   the session's canonical decision cache, so a repeated decision reduces
//!   to a lookup over pre-interned keys. The `equivalent_renamed` entry
//!   runs without any decision cache — its speedup comes purely from the
//!   memoized canonical forms feeding the isomorphism fast path.
//!
//! The binary asserts the two paths return identical verdicts and that the
//! prepared path is at least 2× faster (median) on every entry — the
//! acceptance bar for the prepared layer actually skipping rebuild work.
//!
//! Usage: `bench_prepared [OUT.json]` (default `BENCH_prepared.json`).
//! Honors `OOCQ_BENCH_SAMPLES`, `OOCQ_BENCH_MIN_SAMPLE_MS`,
//! `OOCQ_BENCH_QUICK`.

use oocq_bench::{Harness, Stats};
use oocq_core::{Engine, PreparedQuery, PreparedSchema};
use oocq_parser::{parse_query, parse_schema};
use oocq_query::Query;
use oocq_schema::Schema;
use oocq_service::CanonicalDecisionCache;
use std::sync::Arc;

/// One terminal class `C` with a set attribute `items : {C}`.
const SCHEMA: &str = "class C { items: {C}; }";

/// The left query of the `full(m, f)` containment family (see
/// EXPERIMENTS.md B7): `m` members, one pinned non-member, `f` floaters.
/// `prefix` renames every bound variable, producing isomorphic copies.
fn q1_text(members: usize, floaters: usize, prefix: &str) -> String {
    let mut vars = Vec::new();
    let mut atoms = Vec::new();
    for i in 0..members {
        vars.push(format!("{prefix}y{i}"));
        atoms.push(format!("{prefix}y{i} in C & {prefix}y{i} in x.items"));
    }
    vars.push(format!("{prefix}u"));
    atoms.push(format!("{prefix}u in C & {prefix}u not in x.items"));
    for i in 0..floaters {
        vars.push(format!("{prefix}z{i}"));
        atoms.push(format!("{prefix}z{i} in C"));
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
/// several branches, so unprepared minimization runs the full §4 pipeline
/// per call.
const MIN_SCHEMA: &str =
    "class V {} class A : V {} class B : V {} class D : V {} class K { r: {V}; } class S : K { r: {A}; }";
const MIN_QUERY: &str = "{ x | exists y, z: x in V & y in S & z in V & x in y.r & z in y.r }";

struct Entry {
    name: &'static str,
    op: &'static str,
    unprepared: Stats,
    prepared: Stats,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_prepared.json".into());
    let h = Harness::from_env();
    let cold = Engine::serial();
    // Fresh handles, built inside each timed call.
    let fresh =
        |schema: &Schema, q: &Query| PreparedQuery::new(&PreparedSchema::new(schema), q.clone());
    let mut entries = Vec::new();

    // --- Repeated Strategy::Full containment. ---
    let schema = parse_schema(SCHEMA).unwrap();
    let q1 = parse_query(&schema, &q1_text(2, 2, "")).unwrap();
    let q2 = parse_query(&schema, Q2).unwrap();
    {
        let engine = Engine::serial().with_cache(Arc::new(CanonicalDecisionCache::new(4096)));
        let ps = engine.prepare_schema(&schema);
        let (p1, p2) = (engine.prepare(&ps, &q1), engine.prepare(&ps, &q2));
        let cold_verdict = cold
            .contains(&fresh(&schema, &q1), &fresh(&schema, &q2))
            .unwrap();
        assert_eq!(
            engine.contains(&p1, &p2).unwrap(),
            cold_verdict,
            "full_m2_f2: warm verdict differs from cold"
        );
        let unprepared = h.run("bench_prepared", "full_m2_f2/unprepared", || {
            cold.contains(&fresh(&schema, &q1), &fresh(&schema, &q2))
                .unwrap()
        });
        let prepared = h.run("bench_prepared", "full_m2_f2/prepared", || {
            engine.contains(&p1, &p2).unwrap()
        });
        entries.push(Entry {
            name: "full_m2_f2",
            op: "contains",
            unprepared,
            prepared,
        });
    }

    // --- Repeated §4 minimization. ---
    let min_schema = parse_schema(MIN_SCHEMA).unwrap();
    let min_q = parse_query(&min_schema, MIN_QUERY).unwrap();
    {
        let engine = Engine::serial().with_cache(Arc::new(CanonicalDecisionCache::new(4096)));
        let ps = engine.prepare_schema(&min_schema);
        let p = engine.prepare(&ps, &min_q);
        let cold_verdict = cold.minimize(&fresh(&min_schema, &min_q)).unwrap();
        assert_eq!(
            engine.minimize(&p).unwrap(),
            cold_verdict,
            "minimize_partition: warm result differs from cold"
        );
        let unprepared = h.run("bench_prepared", "minimize_partition/unprepared", || {
            cold.minimize(&fresh(&min_schema, &min_q)).unwrap()
        });
        let prepared = h.run("bench_prepared", "minimize_partition/prepared", || {
            engine.minimize(&p).unwrap()
        });
        entries.push(Entry {
            name: "minimize_partition",
            op: "minimize",
            unprepared,
            prepared,
        });
    }

    // --- Equivalence of isomorphic copies, no decision cache: the prepared
    // speedup comes purely from the memoized canonical forms feeding the
    // isomorphism fast path. ---
    let r1 = parse_query(&schema, &q1_text(2, 2, "a")).unwrap();
    {
        let engine = Engine::serial();
        let ps = engine.prepare_schema(&schema);
        let (p1, pr) = (engine.prepare(&ps, &q1), engine.prepare(&ps, &r1));
        let cold_verdict = cold
            .equivalent(&fresh(&schema, &q1), &fresh(&schema, &r1))
            .unwrap();
        assert_eq!(
            engine.equivalent(&p1, &pr).unwrap(),
            cold_verdict,
            "equivalent_renamed: warm verdict differs from cold"
        );
        assert!(
            cold_verdict,
            "equivalent_renamed: the renamed copy must be equivalent"
        );
        let unprepared = h.run("bench_prepared", "equivalent_renamed/unprepared", || {
            cold.equivalent(&fresh(&schema, &q1), &fresh(&schema, &r1))
                .unwrap()
        });
        let prepared = h.run("bench_prepared", "equivalent_renamed/prepared", || {
            engine.equivalent(&p1, &pr).unwrap()
        });
        entries.push(Entry {
            name: "equivalent_renamed",
            op: "equivalent",
            unprepared,
            prepared,
        });
    }

    for e in &entries {
        assert!(
            e.unprepared.median_ns >= 2.0 * e.prepared.median_ns,
            "{}: prepared must be >= 2x faster than unprepared \
             (unprepared {}, prepared {})",
            e.name,
            Stats::human(e.unprepared.median_ns),
            Stats::human(e.prepared.median_ns),
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"experiment\": \"B9\",\n");
    json.push_str("  \"workload\": \"warm_engine_vs_cold_engine\",\n");
    json.push_str(&format!(
        "  \"measurement\": {{ \"samples\": {}, \"min_sample_ns\": {} }},\n",
        h.samples, h.min_sample_ns
    ));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"op\": \"{}\", \
             \"unprepared_median_ns\": {:.0}, \"prepared_median_ns\": {:.0}, \
             \"prepared_speedup\": {:.1}, \"speedup_floor\": 2 }}{}\n",
            e.name,
            e.op,
            e.unprepared.median_ns,
            e.prepared.median_ns,
            e.unprepared.median_ns / e.prepared.median_ns,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
}
