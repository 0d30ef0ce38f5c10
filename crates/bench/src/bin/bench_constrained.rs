//! Emits `BENCH_constrained.json` (experiment **B12**): what declared
//! schema constraints cost and buy through the [`Theory`] hook, measured
//! as verdict flips and wall-clock medians of the same decision with and
//! without the constraint block. The constraint-free run of each fixture
//! is also the theory hook's overhead probe: `active_theory` returns
//! `None` there, so any gap between the two runs is constraint
//! compilation, not hook plumbing.
//!
//! Fixtures (the three constraint kinds, each on the minimal schema from
//! the `oocq-core` theory tests):
//!
//! * **disjoint_flip** — `{x | x ∈ B} ⊆ {x | x ∈ T1}` on the diamond
//!   `T2 : B, P, Q`; `constraint disjoint P Q;` kills `T2` and flips
//!   *fails* to *holds*.
//! * **total_flip** — `{x | x ∈ T} ⊆ {x | x ∈ T & x.F = u}`;
//!   `constraint total T.F;` chases a witness for `u` in and flips
//!   *fails* to *holds*.
//! * **functional_flip** — two members of `w.Items` each binding one
//!   attribute vs. one member binding both; `constraint functional
//!   C.Items;` equates the members and flips *fails* to *holds*.
//! * **dead_range_vacuous** — `{x | x ∈ T2} ⊆ {x | x ∈ T2}` on the
//!   diamond: *holds* with witnesses plainly, *holds vacuously* (dead
//!   range) under disjointness — the verdict-kind flip the service's
//!   `satisfiable` verb surfaces as `UNSAT`.
//!
//! The binary asserts **at least three fails→holds verdict flips** before
//! writing anything: if constraint compilation stops changing verdicts,
//! the benchmark is measuring nothing and fails loudly.
//!
//! Usage: `bench_constrained [OUT.json]` (default `BENCH_constrained.json`).
//! Honors `OOCQ_BENCH_SAMPLES`, `OOCQ_BENCH_MIN_SAMPLE_MS`,
//! `OOCQ_BENCH_QUICK`.

use oocq_bench::{Harness, Stats};
use oocq_core::{Containment, Engine, PreparedQuery, PreparedSchema};
use oocq_query::{Query, QueryBuilder, Term};
use oocq_schema::{AttrType, Constraint, Schema, SchemaBuilder};

/// `class P {} class Q {} class B {} class T1 : B {} class T2 : B, P, Q {}`
/// with `constraint disjoint P Q;` — the common descendant `T2` is dead.
fn disjoint_schema(with_constraint: bool) -> Schema {
    let mut b = SchemaBuilder::new();
    let p = b.class("P").unwrap();
    let q = b.class("Q").unwrap();
    let base = b.class("B").unwrap();
    let t1 = b.class("T1").unwrap();
    let t2 = b.class("T2").unwrap();
    b.subclass(t1, base).unwrap();
    b.subclass(t2, base).unwrap();
    b.subclass(t2, p).unwrap();
    b.subclass(t2, q).unwrap();
    if with_constraint {
        b.constraint(Constraint::Disjoint(p, q));
    }
    b.finish().unwrap()
}

/// `class U {} class T { F : U }` with `constraint total T.F;`.
fn total_schema(with_constraint: bool) -> Schema {
    let mut b = SchemaBuilder::new();
    let u = b.class("U").unwrap();
    let t = b.class("T").unwrap();
    let f = b.attribute(t, "F", AttrType::Object(u)).unwrap();
    if with_constraint {
        b.constraint(Constraint::Total(t, f));
    }
    b.finish().unwrap()
}

/// `class D {} class M { A : D  B : D } class C { Items : {M} }` with
/// `constraint functional C.Items;`.
fn functional_schema(with_constraint: bool) -> Schema {
    let mut b = SchemaBuilder::new();
    let d = b.class("D").unwrap();
    let m = b.class("M").unwrap();
    let c = b.class("C").unwrap();
    b.attribute(m, "A", AttrType::Object(d)).unwrap();
    b.attribute(m, "B", AttrType::Object(d)).unwrap();
    let items = b.attribute(c, "Items", AttrType::SetOf(m)).unwrap();
    if with_constraint {
        b.constraint(Constraint::Functional(c, items));
    }
    b.finish().unwrap()
}

fn range_query(s: &Schema, class: &str) -> Query {
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    b.range(x, [s.class_id(class).unwrap()]);
    b.build()
}

/// `Q₂` of **total_flip**: `{x | x ∈ T, u ∈ U, x.F = u}`.
fn total_q2(s: &Schema) -> Query {
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    let u = b.var("u");
    b.range(x, [s.class_id("T").unwrap()]);
    b.range(u, [s.class_id("U").unwrap()]);
    b.eq(Term::Attr(x, s.attr_id("F").unwrap()), Term::Var(u));
    b.build()
}

/// `(Q₁, Q₂)` of **functional_flip**: two members each binding one of
/// `A`/`B` vs. one member binding both.
fn functional_pair(s: &Schema) -> (Query, Query) {
    let (c, m, d) = (
        s.class_id("C").unwrap(),
        s.class_id("M").unwrap(),
        s.class_id("D").unwrap(),
    );
    let (a, bb, items) = (
        s.attr_id("A").unwrap(),
        s.attr_id("B").unwrap(),
        s.attr_id("Items").unwrap(),
    );
    let mut b = QueryBuilder::new("w");
    let w = b.free();
    let x = b.var("x");
    let y = b.var("y");
    let u = b.var("u");
    let v = b.var("v");
    b.range(w, [c])
        .range(x, [m])
        .range(y, [m])
        .range(u, [d])
        .range(v, [d]);
    b.member(x, w, items).member(y, w, items);
    b.eq(Term::Attr(x, a), Term::Var(u));
    b.eq(Term::Attr(y, bb), Term::Var(v));
    let q1 = b.build();

    let mut b = QueryBuilder::new("w");
    let w = b.free();
    let mm = b.var("m");
    let u = b.var("u");
    let v = b.var("v");
    b.range(w, [c]).range(mm, [m]).range(u, [d]).range(v, [d]);
    b.member(mm, w, items);
    b.eq(Term::Attr(mm, a), Term::Var(u));
    b.eq(Term::Attr(mm, bb), Term::Var(v));
    let q2 = b.build();
    (q1, q2)
}

fn verdict_label(v: &Containment) -> &'static str {
    match v {
        Containment::Holds(_) => "holds",
        Containment::HoldsVacuously(_) => "holds_vacuously",
        Containment::Fails { .. } => "fails",
        Containment::FailsRightUnsatisfiable(_) => "fails_right_unsat",
    }
}

struct Entry {
    name: String,
    plain_verdict: &'static str,
    constrained_verdict: &'static str,
    plain: Stats,
    constrained: Stats,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_constrained.json".into());
    let h = Harness::from_env();
    let engine = Engine::serial();
    let mut entries = Vec::new();

    // (name, plain schema, constrained schema, Q₁, Q₂)
    let disjoint_plain = disjoint_schema(false);
    let disjoint_con = disjoint_schema(true);
    let total_plain = total_schema(false);
    let total_con = total_schema(true);
    let functional_plain = functional_schema(false);
    let functional_con = functional_schema(true);
    let (func_q1, func_q2) = functional_pair(&functional_plain);
    let fixtures: Vec<(&str, &Schema, &Schema, Query, Query)> = vec![
        (
            "disjoint_flip",
            &disjoint_plain,
            &disjoint_con,
            range_query(&disjoint_plain, "B"),
            range_query(&disjoint_plain, "T1"),
        ),
        (
            "total_flip",
            &total_plain,
            &total_con,
            range_query(&total_plain, "T"),
            total_q2(&total_plain),
        ),
        (
            "functional_flip",
            &functional_plain,
            &functional_con,
            func_q1,
            func_q2,
        ),
        (
            "dead_range_vacuous",
            &disjoint_plain,
            &disjoint_con,
            range_query(&disjoint_plain, "T2"),
            range_query(&disjoint_plain, "T2"),
        ),
    ];

    for (name, plain, constrained, q1, q2) in fixtures {
        // `disjoint_flip` ranges over the non-terminal `B`, so it goes
        // through the positive-query dispatcher (a boolean verdict); the
        // other fixtures are terminal and keep the full verdict kind.
        let terminal = q1.is_terminal(plain) && q2.is_terminal(plain);
        // Fresh handles per call: every sample compiles the theory and
        // derives the decision artifacts anew.
        let verdict = |schema: &Schema| -> &'static str {
            let ps = PreparedSchema::new(schema);
            let (p1, p2) = (
                PreparedQuery::new(&ps, q1.clone()),
                PreparedQuery::new(&ps, q2.clone()),
            );
            if terminal {
                verdict_label(&engine.decide(&p1, &p2).unwrap())
            } else if engine.dispatch(&p1, &p2).unwrap() {
                "holds"
            } else {
                "fails"
            }
        };
        let vp = verdict(plain);
        let vc = verdict(constrained);
        let plain_stats = h.run("bench_constrained", &format!("{name}/plain"), || {
            verdict(plain)
        });
        let con_stats = h.run("bench_constrained", &format!("{name}/constrained"), || {
            verdict(constrained)
        });
        entries.push(Entry {
            name: name.into(),
            plain_verdict: vp,
            constrained_verdict: vc,
            plain: plain_stats,
            constrained: con_stats,
        });
    }

    // The floor: constraint compilation must still flip at least three
    // fails verdicts to holds. If it stops doing that, the theory layer
    // is inert and this benchmark measures nothing.
    let flips = entries
        .iter()
        .filter(|e| e.plain_verdict == "fails" && e.constrained_verdict == "holds")
        .count();
    assert!(
        flips >= 3,
        "expected >= 3 fails->holds verdict flips, got {flips}: {:?}",
        entries
            .iter()
            .map(|e| format!(
                "{}: {} -> {}",
                e.name, e.plain_verdict, e.constrained_verdict
            ))
            .collect::<Vec<_>>(),
    );
    assert!(
        entries
            .iter()
            .any(|e| e.constrained_verdict == "holds_vacuously"),
        "expected the dead-range fixture to go vacuous under disjointness",
    );

    for e in &entries {
        println!(
            "bench_constrained/{}: {} -> {} ({:.0}ns -> {:.0}ns, x{:.2})",
            e.name,
            e.plain_verdict,
            e.constrained_verdict,
            e.plain.median_ns,
            e.constrained.median_ns,
            e.constrained.median_ns / e.plain.median_ns,
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"experiment\": \"B12\",\n");
    json.push_str("  \"workload\": \"constraint_theory_verdict_flips\",\n");
    json.push_str(&format!(
        "  \"measurement\": {{ \"samples\": {}, \"min_sample_ns\": {} }},\n",
        h.samples, h.min_sample_ns
    ));
    json.push_str(&format!("  \"verdict_flips\": {flips},\n"));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"plain_verdict\": \"{}\", \
             \"constrained_verdict\": \"{}\", \
             \"plain_median_ns\": {:.0}, \"constrained_median_ns\": {:.0}, \
             \"overhead\": {:.3} }}{}\n",
            json_escape(&e.name),
            e.plain_verdict,
            e.constrained_verdict,
            e.plain.median_ns,
            e.constrained.median_ns,
            e.constrained.median_ns / e.plain.median_ns,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
}
