//! End-to-end payoff: minimize first, evaluate faster.
//!
//! Generates a sizable vehicle-rental state, evaluates the Example 1.1
//! query before and after minimization, checks the answers coincide, and
//! reports the wall-clock difference plus the extent sizes behind it —
//! the §1 motivation of the paper, observed on data.
//!
//! Run with `cargo run --release --example rental_analytics`.

use oocq::gen::StdRng;
use oocq::gen::{random_state, StateParams};
use oocq::{answer, answer_union, parse_query, samples, Engine};
use std::time::Instant;

fn main() {
    let schema = samples::vehicle_rental();
    let query = parse_query(
        &schema,
        "{ x | exists y: x in Vehicle & y in Discount & x in y.VehRented }",
    )
    .unwrap();
    let engine = Engine::serial();
    let prepared_schema = engine.prepare_schema(&schema);
    let optimal = engine
        .minimize(&engine.prepare(&prepared_schema, &query))
        .unwrap();

    println!("query    : {}", query.display(&schema));
    println!("minimized: {}\n", optimal.display(&schema));

    let mut rng = StdRng::seed_from_u64(2026);
    for objects in [200, 1000, 5000] {
        let state = random_state(
            &mut rng,
            &schema,
            &StateParams {
                objects,
                fill_prob: 0.9,
                max_set: 8,
            },
        );
        let vehicle_extent = state.extent(schema.class_id("Vehicle").unwrap()).len();
        let auto_extent = state.extent(schema.class_id("Auto").unwrap()).len();

        let t0 = Instant::now();
        let before = answer(&schema, &state, &query);
        let t_before = t0.elapsed();

        let t0 = Instant::now();
        let after = answer_union(&schema, &state, &optimal);
        let t_after = t0.elapsed();

        assert_eq!(before, after, "minimization must preserve the answer");
        println!(
            "objects={objects:5}  |Vehicle|={vehicle_extent:4} -> |Auto|={auto_extent:4}  \
             answers={:3}  naive={t_before:9.1?}  minimized={t_after:9.1?}  speedup={:.1}x",
            after.len(),
            t_before.as_secs_f64() / t_after.as_secs_f64().max(1e-9),
        );
    }
}
