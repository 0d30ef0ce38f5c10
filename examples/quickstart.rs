//! Quickstart: the paper's Example 1.1 end to end.
//!
//! Builds the vehicle-rental schema from DSL text, minimizes the "vehicles
//! rented by discount customers" query, verifies the rewrite is a genuine
//! equivalence both algorithmically and by evaluating on a concrete state,
//! and prints the search-space saving.
//!
//! Run with `cargo run --example quickstart`.

use oocq::{
    answer, answer_union, parse_query, parse_schema, search_space_cost, union_cost, Engine,
    StateBuilder,
};

fn main() {
    let schema = parse_schema(
        r#"
        class Vehicle {}
        class Auto : Vehicle {}
        class Trailer : Vehicle {}
        class Truck : Vehicle {}
        class Client { VehRented: {Vehicle}; }
        class Discount : Client { VehRented: {Auto}; }
        class Regular : Client {}
        "#,
    )
    .expect("schema parses");

    let query = parse_query(
        &schema,
        "{ x | exists y: x in Vehicle & y in Discount & x in y.VehRented }",
    )
    .expect("query parses");

    println!("original : {}", query.display(&schema));

    // Prepare once, decide many times: the Engine memoizes every derived
    // artifact (analysis, terminal classes, expansion) on the handles.
    let engine = Engine::serial();
    let prepared_schema = engine.prepare_schema(&schema);
    let prepared = engine.prepare(&prepared_schema, &query);

    // Exact minimization (§4 of the paper): the typing constraint
    // Discount.VehRented : {Auto} narrows x from Vehicle to Auto.
    let optimal = engine.minimize(&prepared).expect("query is positive");
    println!("minimized: {}", optimal.display(&schema));

    // The rewrite is an equivalence, certified by the containment algorithm.
    let back = engine.prepare(&prepared_schema, &optimal.queries()[0]);
    assert!(engine.contains_positive(&prepared, &back).unwrap());
    assert!(engine.contains_positive(&back, &prepared).unwrap());
    println!("equivalence: certified in both directions");

    // ... and observable on a concrete database state.
    let auto_c = schema.class_id("Auto").unwrap();
    let truck_c = schema.class_id("Truck").unwrap();
    let disc_c = schema.class_id("Discount").unwrap();
    let reg_c = schema.class_id("Regular").unwrap();
    let veh_rented = schema.attr_id("VehRented").unwrap();

    let mut b = StateBuilder::new();
    let beetle = b.object(auto_c);
    let cherokee = b.object(auto_c);
    let pickup = b.object(truck_c);
    let alice = b.object(disc_c);
    let bob = b.object(reg_c);
    b.set_members(alice, veh_rented, [beetle]);
    b.set_members(bob, veh_rented, [cherokee, pickup]);
    let state = b.finish(&schema).expect("state is legal");

    let before = answer(&schema, &state, &query);
    let after = answer_union(&schema, &state, &optimal);
    println!("answers  : {before:?} == {after:?}");
    assert_eq!(before, after);

    // The point of the exercise: fewer objects are logically accessed.
    let show = |cost: &std::collections::BTreeMap<oocq::ClassId, usize>| {
        cost.iter()
            .map(|(c, n)| format!("{}x{}", schema.class_name(*c), n))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "search space before: {}",
        show(&search_space_cost(&schema, &query))
    );
    println!(
        "search space after : {}",
        show(&union_cost(&schema, &optimal))
    );
}
