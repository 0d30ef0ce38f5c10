//! Emits `BENCH_prune.json` (experiment **B10**): how far the monotone
//! sub-lattice pruner and the most-constrained-first homomorphism search
//! cut into the `2^|T(S)|` membership-subset wall, measured in *branches
//! actually evaluated* (via [`oocq_core::BranchStats`]) and wall-clock
//! medians, against the exhaustive baseline (`EngineConfig::without_pruning`
//! / `SearchOrder::Static`).
//!
//! Fixtures:
//!
//! * **collapse_pin(f)** — `Q₁` pins `u ∉ x.items` next to `f` floaters;
//!   `Q₂`'s only negative atom maps to `u` with no danger bits, so the
//!   empty-`W` witness is stable and the pruner certifies the whole
//!   `2^f` block from one evaluation. Floor: ≥ 10× fewer evaluations.
//! * **corollary_gap(m, f)** — the full Theorem 3.1 enumeration against a
//!   *positive* `Q₂`: every witness is danger-free, so each consistent
//!   partition's block collapses at its empty subset and the evaluated
//!   count drops from `Σ_S 2^|T(S)|` to the number of partitions. Floor:
//!   ≥ 10× fewer evaluations.
//! * **adversarial(f)** — the prune-resistant budget-test family: `Q₂`'s
//!   non-membership maps to the first floater the current `W` excludes, so
//!   every witness carries a live danger bit and the pruner can retire
//!   almost nothing. Recorded honestly with no floor — this is the wall
//!   the pruner does *not* beat, only the warm-start softens it.
//! * **mcf_chain(L)** — a single-branch membership chain whose bound
//!   variables are declared in reverse, the worst case for the static
//!   declaration-order search; most-constrained-first propagates the chain
//!   with no backtracking. Floor: ≥ 10× fewer backtracks.
//!
//! Usage: `bench_prune [OUT.json]` (default `BENCH_prune.json`). Honors
//! `OOCQ_BENCH_SAMPLES`, `OOCQ_BENCH_MIN_SAMPLE_MS`, `OOCQ_BENCH_QUICK`.

use oocq_bench::{Harness, Stats};
use oocq_core::{BranchStats, Engine, EngineConfig, SearchOrder};
use oocq_query::{Query, QueryBuilder};
use oocq_schema::{AttrType, Schema, SchemaBuilder};

/// One terminal class `C` with a set attribute `items : {C}`.
fn bench_schema() -> Schema {
    let mut b = SchemaBuilder::new();
    let c = b.class("C").unwrap();
    b.attribute(c, "items", AttrType::SetOf(c)).unwrap();
    b.finish().unwrap()
}

/// `Q₁` of **collapse_pin(f)**: `x ∈ x.items` makes `x.items` a set term,
/// `u ∉ x.items` pins a variable no branch can make a member, and the `f`
/// floaters contribute the `2^f` membership subsets.
fn collapse_q1(schema: &Schema, floaters: usize) -> Query {
    let c = schema.class_id("C").unwrap();
    let items = schema.attr_id("items").unwrap();
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    b.range(x, [c]);
    b.member(x, x, items);
    let u = b.var("u");
    b.range(u, [c]);
    b.non_member(u, x, items);
    for i in 0..floaters {
        let z = b.var(&format!("z{i}"));
        b.range(z, [c]);
    }
    b.build()
}

/// `Q₂` of **collapse_pin**: inequality-free, one non-membership that maps
/// to the pinned `u` in every branch.
fn collapse_q2(schema: &Schema) -> Query {
    let c = schema.class_id("C").unwrap();
    let items = schema.attr_id("items").unwrap();
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    let u2 = b.var("u2");
    b.range(x, [c]).range(u2, [c]);
    b.non_member(u2, x, items);
    b.build()
}

/// `Q₁` of **corollary_gap** / **adversarial**: the `full(m, f)` family of
/// EXPERIMENTS.md B7 — `m` members, one pinned non-member, `f` floaters.
fn full_q1(schema: &Schema, members: usize, floaters: usize) -> Query {
    let c = schema.class_id("C").unwrap();
    let items = schema.attr_id("items").unwrap();
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    b.range(x, [c]);
    for i in 0..members {
        let y = b.var(&format!("y{i}"));
        b.range(y, [c]);
        b.member(y, x, items);
    }
    let u = b.var("u");
    b.range(u, [c]);
    b.non_member(u, x, items);
    for i in 0..floaters {
        let z = b.var(&format!("z{i}"));
        b.range(z, [c]);
    }
    b.build()
}

/// Positive `Q₂` of **corollary_gap**: no negative atoms, so every witness
/// is danger-free and every block collapses wholesale.
fn positive_q2(schema: &Schema) -> Query {
    let c = schema.class_id("C").unwrap();
    let items = schema.attr_id("items").unwrap();
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    let y = b.var("y");
    b.range(x, [c]).range(y, [c]);
    b.member(y, x, items);
    b.build()
}

/// `Q₁` of **mcf_chain(L)**: a membership chain `p1 ∈ x.items, p2 ∈
/// p1.items, …` of length `L`.
fn chain_q1(schema: &Schema, len: usize) -> Query {
    let c = schema.class_id("C").unwrap();
    let items = schema.attr_id("items").unwrap();
    let mut b = QueryBuilder::new("x");
    let mut prev = b.free();
    b.range(prev, [c]);
    for i in 1..=len {
        let p = b.var(&format!("p{i}"));
        b.range(p, [c]);
        b.member(p, prev, items);
        prev = p;
    }
    b.build()
}

/// `Q₂` of **mcf_chain(L)**: the same chain with the bound variables
/// *declared* leaf-first, so the static declaration order assigns the
/// whole chain blind and validates it only at the last variable.
fn chain_q2(schema: &Schema, len: usize) -> Query {
    let c = schema.class_id("C").unwrap();
    let items = schema.attr_id("items").unwrap();
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    b.range(x, [c]);
    let mut vars = Vec::with_capacity(len + 1);
    for i in (1..=len).rev() {
        let q = b.var(&format!("q{i}"));
        b.range(q, [c]);
        vars.push(q);
    }
    vars.reverse();
    vars.insert(0, x);
    for i in 1..=len {
        b.member(vars[i], vars[i - 1], items);
    }
    b.build()
}

/// One decision over fresh handles, returning the verdict and the left
/// side's cumulative branch counters (exactly one decision deep). The timed
/// loops call it too, so every sample re-derives the analysis, classes and
/// branch indexes, as a one-shot call does.
fn probe(
    schema: &Schema,
    q1: &Query,
    q2: &Query,
    engine: &Engine,
    full: bool,
) -> (bool, BranchStats) {
    let ps = engine.prepare_schema(schema);
    let p1 = engine.prepare(&ps, q1);
    let p2 = engine.prepare(&ps, q2);
    let holds = if full {
        engine.contains_full(&p1, &p2).unwrap()
    } else {
        engine.contains(&p1, &p2).unwrap()
    };
    (holds, p1.stats().branch_stats)
}

struct Entry {
    name: String,
    metric: &'static str,
    baseline_count: u64,
    pruned_count: u64,
    reduction_floor: u64,
    baseline: Stats,
    pruned: Stats,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_prune.json".into());
    let h = Harness::from_env();
    let schema = bench_schema();
    let pruned_engine = Engine::serial();
    let baseline_engine = Engine::new(EngineConfig::serial().without_pruning());
    let mut entries = Vec::new();

    // --- collapse_pin(10): one stable witness retires the whole block. ---
    {
        let q1 = collapse_q1(&schema, 10);
        let q2 = collapse_q2(&schema);
        let (holds_p, sp) = probe(&schema, &q1, &q2, &pruned_engine, false);
        let (holds_b, sb) = probe(&schema, &q1, &q2, &baseline_engine, false);
        assert!(holds_p && holds_b, "collapse_pin: verdicts must hold");
        assert_eq!(sp.branches_planned, sb.branches_planned);
        let pruned = h.run("bench_prune", "collapse_pin_f10/pruned", || {
            probe(&schema, &q1, &q2, &pruned_engine, false).0
        });
        let baseline = h.run("bench_prune", "collapse_pin_f10/unpruned", || {
            probe(&schema, &q1, &q2, &baseline_engine, false).0
        });
        entries.push(Entry {
            name: "collapse_pin_f10".into(),
            metric: "branches_evaluated",
            baseline_count: sb.branches_evaluated,
            pruned_count: sp.branches_evaluated,
            reduction_floor: 10,
            baseline,
            pruned,
        });
    }

    // --- corollary_gap(1, 5): full Theorem 3.1 against a positive Q₂ —
    // every consistent partition's block collapses at its empty subset. ---
    {
        let q1 = full_q1(&schema, 1, 5);
        let q2 = positive_q2(&schema);
        let (holds_p, sp) = probe(&schema, &q1, &q2, &pruned_engine, true);
        let (holds_b, sb) = probe(&schema, &q1, &q2, &baseline_engine, true);
        assert!(holds_p && holds_b, "corollary_gap: verdicts must hold");
        assert_eq!(sp.branches_planned, sb.branches_planned);
        let pruned = h.run("bench_prune", "corollary_gap_m1_f5/pruned", || {
            probe(&schema, &q1, &q2, &pruned_engine, true).0
        });
        let baseline = h.run("bench_prune", "corollary_gap_m1_f5/unpruned", || {
            probe(&schema, &q1, &q2, &baseline_engine, true).0
        });
        entries.push(Entry {
            name: "corollary_gap_m1_f5".into(),
            metric: "branches_evaluated",
            baseline_count: sb.branches_evaluated,
            pruned_count: sp.branches_evaluated,
            reduction_floor: 10,
            baseline,
            pruned,
        });
    }

    // --- adversarial(12): the prune-resistant wall, recorded honestly. ---
    {
        let q1 = full_q1(&schema, 1, 12);
        let q2 = collapse_q2(&schema);
        let (holds_p, sp) = probe(&schema, &q1, &q2, &pruned_engine, false);
        let (holds_b, sb) = probe(&schema, &q1, &q2, &baseline_engine, false);
        assert!(holds_p && holds_b, "adversarial: verdicts must hold");
        assert_eq!(sp.branches_planned, sb.branches_planned);
        let pruned = h.run("bench_prune", "adversarial_f12/pruned", || {
            probe(&schema, &q1, &q2, &pruned_engine, false).0
        });
        let baseline = h.run("bench_prune", "adversarial_f12/unpruned", || {
            probe(&schema, &q1, &q2, &baseline_engine, false).0
        });
        entries.push(Entry {
            name: "adversarial_f12".into(),
            metric: "branches_evaluated",
            baseline_count: sb.branches_evaluated,
            pruned_count: sp.branches_evaluated,
            reduction_floor: 0,
            baseline,
            pruned,
        });
    }

    // --- mcf_chain(8): backtracks under static declaration order versus
    // most-constrained-first, on a single-branch decision. ---
    {
        let q1 = chain_q1(&schema, 8);
        let q2 = chain_q2(&schema, 8);
        let static_engine =
            Engine::new(EngineConfig::serial().with_search_order(SearchOrder::Static));
        let (holds_p, sp) = probe(&schema, &q1, &q2, &pruned_engine, false);
        let (holds_b, sb) = probe(&schema, &q1, &q2, &static_engine, false);
        assert!(holds_p && holds_b, "mcf_chain: verdicts must hold");
        let pruned = h.run("bench_prune", "mcf_chain_l8/most_constrained", || {
            probe(&schema, &q1, &q2, &pruned_engine, false).0
        });
        let baseline = h.run("bench_prune", "mcf_chain_l8/static_order", || {
            probe(&schema, &q1, &q2, &static_engine, false).0
        });
        entries.push(Entry {
            name: "mcf_chain_l8".into(),
            metric: "mapping_backtracks",
            baseline_count: sb.mapping_backtracks,
            pruned_count: sp.mapping_backtracks,
            reduction_floor: 10,
            baseline,
            pruned,
        });
    }

    for e in &entries {
        let ratio = (e.baseline_count + 1) as f64 / (e.pruned_count + 1) as f64;
        println!(
            "bench_prune/{}: {} {} -> {} ({ratio:.1}x)",
            e.name, e.metric, e.baseline_count, e.pruned_count
        );
        if e.reduction_floor > 0 {
            assert!(
                ratio >= e.reduction_floor as f64,
                "{}: {} reduction {ratio:.1}x is under the {}x floor \
                 (baseline {}, pruned {})",
                e.name,
                e.metric,
                e.reduction_floor,
                e.baseline_count,
                e.pruned_count,
            );
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"experiment\": \"B10\",\n");
    json.push_str("  \"workload\": \"branch_pruning_vs_exhaustive_walk\",\n");
    json.push_str(&format!(
        "  \"measurement\": {{ \"samples\": {}, \"min_sample_ns\": {} }},\n",
        h.samples, h.min_sample_ns
    ));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"metric\": \"{}\", \
             \"baseline_count\": {}, \"pruned_count\": {}, \
             \"reduction\": {:.1}, \"reduction_floor\": {}, \
             \"baseline_median_ns\": {:.0}, \"pruned_median_ns\": {:.0}, \
             \"speedup\": {:.3} }}{}\n",
            json_escape(&e.name),
            e.metric,
            e.baseline_count,
            e.pruned_count,
            (e.baseline_count + 1) as f64 / (e.pruned_count + 1) as f64,
            e.reduction_floor,
            e.baseline.median_ns,
            e.pruned.median_ns,
            e.baseline.median_ns / e.pruned.median_ns,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
}
