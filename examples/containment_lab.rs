//! A containment laboratory: the subtle examples of §3, decided live.
//!
//! Replays Examples 1.3, 3.1, 3.2, and 3.3 — the cases where negative atoms
//! and implied inequalities make containment non-obvious — printing the
//! verdict and the containment condition (Theorem 3.1 or one of its
//! corollaries) that applied.
//!
//! Run with `cargo run --example containment_lab`.

use oocq::{parse_query, parse_schema, strategy_for, Engine, Query, Schema, Strategy};

fn check(schema: &Schema, label: &str, q1: &Query, q2: &Query) {
    // Prepare both sides once; the forward check, backward check, and
    // certificate below all reuse the same memoized artifacts.
    let engine = Engine::serial();
    let ps = engine.prepare_schema(schema);
    let (p1, p2) = (engine.prepare(&ps, q1), engine.prepare(&ps, q2));
    let fwd = engine.contains(&p1, &p2).unwrap();
    let bwd = engine.contains(&p2, &p1).unwrap();
    let rel = match (fwd, bwd) {
        (true, true) => "Q1 == Q2 (equivalent)",
        (true, false) => "Q1 < Q2 (strictly contained)",
        (false, true) => "Q2 < Q1 (strictly contained)",
        (false, false) => "incomparable",
    };
    let strat = |q: &Query| match strategy_for(q) {
        Strategy::Positive => "Cor 3.4",
        Strategy::InequalityFree => "Cor 3.2",
        Strategy::PositiveWithInequalities => "Cor 3.3",
        Strategy::Full => "Thm 3.1",
    };
    println!("{label}");
    println!("  Q1: {}", q1.display(schema));
    println!("  Q2: {}", q2.display(schema));
    println!(
        "  verdict: {rel}   [Q1 ⊆ Q2 via {}; Q2 ⊆ Q1 via {}]",
        strat(q2),
        strat(q1)
    );
    // Print the certificate for the forward direction.
    let proof = engine.decide(&p1, &p2).unwrap();
    for line in proof.render(schema, q1, q2).lines() {
        println!("  Q1 ⊆ Q2 {line}");
    }
    println!();
}

fn main() {
    // ---- Example 1.3: inequalities implied by positive conditions. ----
    let s = parse_schema("class C { A: V; } class V {} class T1 : V {} class T2 : V {}").unwrap();
    let q1 = parse_query(
        &s,
        "{ x | exists y, s, t: x in C & y in C & s in T1 & t in T2 & s = x.A & t = y.A & x != y }",
    )
    .unwrap();
    let q2 = parse_query(
        &s,
        "{ x | exists y, s, t: x in C & y in C & s in T1 & t in T2 & s = x.A & t = y.A }",
    )
    .unwrap();
    check(
        &s,
        "Example 1.3 — `x != y` is implied: T1/T2 objects are distinct, so x.A != y.A",
        &q1,
        &q2,
    );

    // ---- Example 3.1: equalities through attribute congruence. ----
    let s = parse_schema("class C { A: D; B: {D}; } class D {}").unwrap();
    let q1 = parse_query(
        &s,
        "{ x | exists y, z: x in C & y in C & z in D & z = y.A & z in y.B & x = y }",
    )
    .unwrap();
    let q2 = parse_query(&s, "{ y | exists z: y in C & z in D & z = y.A }").unwrap();
    check(
        &s,
        "Example 3.1 — Q1 asks more (membership in y.B), so the containment is strict",
        &q1,
        &q2,
    );

    // ---- Example 3.2: counting distinct objects. ----
    let s = parse_schema("class C {}").unwrap();
    let q1 = parse_query(
        &s,
        "{ x | exists y, z: x in C & y in C & z in C & x != y & y != z }",
    )
    .unwrap();
    let q2 = parse_query(&s, "{ x | exists y: x in C & y in C & x != y }").unwrap();
    let q3 = parse_query(
        &s,
        "{ x | exists y, z: x in C & y in C & z in C & x != y & y != z & x != z }",
    )
    .unwrap();
    check(
        &s,
        "Example 3.2 — a chain of two inequalities still needs only two distinct objects",
        &q1,
        &q2,
    );
    check(
        &s,
        "Example 3.2 — the triangle needs three distinct objects, so it is strictly stronger",
        &q3,
        &q1,
    );

    // ---- Example 3.3: non-membership and the W-augmentation. ----
    let s = parse_schema("class T1 {} class T2 { A: {T1}; }").unwrap();
    let q1 = parse_query(&s, "{ x | exists y: x in T1 & y in T2 }").unwrap();
    let q2 = parse_query(&s, "{ x | exists y: x in T1 & y in T2 & x not in y.A }").unwrap();
    check(
        &s,
        "Example 3.3 — some state puts x inside y.A, so Q1 is NOT contained in Q2",
        &q1,
        &q2,
    );
}
