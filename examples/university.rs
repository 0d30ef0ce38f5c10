//! A richer domain: a university schema with a three-level hierarchy and
//! several realistic queries, run through one [`Engine`] over a shared
//! [`CanonicalDecisionCache`]. Shows the full surface working together: the DSL, typing-based
//! pruning across multiple refinement sites, certificates, the pipeline
//! report, and evaluation on generated data.
//!
//! Run with `cargo run --example university`.

use oocq::gen::StdRng;
use oocq::gen::{random_state, StateParams};
use oocq::{
    answer, answer_union, decide_containment, minimize_positive_report, parse_query, parse_schema,
    CanonicalDecisionCache, Engine,
};
use std::sync::Arc;

fn main() {
    // People split into staff and students; students into undergrads and
    // grads. Only grads supervise (refinement: Advisor on Grad is a
    // Professor); undergrads take courses taught by any instructor, grads
    // only take seminars.
    let schema = parse_schema(
        r#"
        class Person {}
        class Staff : Person {}
        class Professor : Staff { Teaches: {Course}; }
        class Lecturer : Staff { Teaches: {Lecture}; }
        class Student : Person { Takes: {Course}; }
        class Undergrad : Student {}
        class Grad : Student { Advisor: Professor; Takes: {Seminar}; }
        class Course {}
        class Lecture : Course {}
        class Seminar : Course {}
        "#,
    )
    .expect("schema parses");

    println!("schema statistics: {:?}\n", schema.statistics());

    // One engine over a decision cache: a repeated minimization is a
    // cache hit.
    let cache = Arc::new(CanonicalDecisionCache::new(1024));
    let engine = Engine::serial().with_cache(cache.clone());
    let prepared_schema = engine.prepare_schema(&schema);

    // Q1: courses taken by some student and taught by some staff member.
    let q1 = parse_query(
        &schema,
        "{ c | exists s, t: c in Course & s in Student & t in Staff \
           & c in s.Takes & c in t.Teaches }",
    )
    .unwrap();
    // Q2: seminars taken by a grad student whose advisor teaches them.
    let q2 = parse_query(
        &schema,
        "{ c | exists g: c in Seminar & g in Grad & c in g.Takes & c in g.Advisor.Teaches }",
    )
    .unwrap();

    for (name, q) in [("Q1", &q1), ("Q2", &q2)] {
        println!("== {name}: {}", q.display(&schema));
        let report = minimize_positive_report(&schema, q).unwrap();
        print!("{}", report.render(&schema));
        println!();
    }

    // Containment with a certificate: every Q2 answer is a Q1 answer.
    let (p1, p2) = (
        engine.prepare(&prepared_schema, &q1),
        engine.prepare(&prepared_schema, &q2),
    );
    let m2 = engine.minimize(&p2).unwrap();
    let m1 = engine.minimize(&p1).unwrap();
    let contained = oocq::union_contains(&schema, &m2, &m1).unwrap();
    println!("Q2 <= Q1: {}", if contained { "holds" } else { "FAILS" });
    if let (Some(sub2), true) = (m2.queries().first(), contained) {
        // Show one terminal-level certificate.
        if let Some(sub1) = m1
            .iter()
            .find(|p| oocq::contains_terminal(&schema, sub2, p).unwrap())
        {
            let proof = decide_containment(&schema, sub2, sub1).unwrap();
            for line in proof.render(&schema, sub2, sub1).lines() {
                println!("  {line}");
            }
        }
    }

    // Evaluate original vs minimized on generated data.
    let mut rng = StdRng::seed_from_u64(42);
    let state = random_state(
        &mut rng,
        &schema,
        &StateParams {
            objects: 600,
            fill_prob: 0.85,
            max_set: 5,
        },
    );
    println!("\nstate: {}", state.statistics(&schema));
    for (name, q, p) in [("Q1", &q1, &p1), ("Q2", &q2, &p2)] {
        let m = engine.minimize(p).unwrap();
        let naive = answer(&schema, &state, q);
        let optimal = answer_union(&schema, &state, &m);
        assert_eq!(naive, optimal, "{name}: minimization must preserve answers");
        println!(
            "{name}: {} answers; minimized union has {} subquer{}",
            naive.len(),
            m.len(),
            if m.len() == 1 { "y" } else { "ies" }
        );
    }
    println!("\ndecision cache: {:?}", cache.stats());
}
