//! Differential tests for the branch engine: the full Theorem 3.1
//! enumeration must agree with the corollary fast paths wherever both
//! apply, and search order, pruning, and budgets must leave the
//! certificate's verdict and branch walk unchanged.

use oocq::gen::{random_schema, random_terminal_positive, QueryParams, Rng, SchemaParams, StdRng};
use oocq::{
    Atom, Containment, CoreError, Engine, EngineConfig, PreparedQuery, PreparedSchema, Query,
    QueryBuilder, Schema, SearchOrder, Term,
};

/// `decide` over fresh handles of `q1` and `q2`, on an engine with `cfg`.
fn on_engine<T>(
    schema: &Schema,
    q1: &Query,
    q2: &Query,
    cfg: &EngineConfig,
    decide: impl Fn(&Engine, &PreparedQuery, &PreparedQuery) -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    let ps = PreparedSchema::new(schema);
    let (p1, p2) = (
        PreparedQuery::new(&ps, q1.clone()),
        PreparedQuery::new(&ps, q2.clone()),
    );
    decide(&Engine::new(cfg.clone()), &p1, &p2)
}

fn test_schema(seed: u64) -> Schema {
    match seed % 4 {
        0 => oocq::samples::vehicle_rental(),
        1 => oocq::samples::n1_partition(),
        2 => oocq::samples::example_31(),
        _ => random_schema(
            &mut StdRng::seed_from_u64(seed),
            &SchemaParams {
                roots: 2,
                branching: 2,
                object_attrs: 2,
                set_attrs: 1,
                refine_prob: 0.4,
            },
        ),
    }
}

/// Append random inequality / non-membership atoms so that `strategy_for`
/// selects the branchier corollaries (and, with both kinds, Theorem 3.1
/// itself).
fn add_negative_atoms(rng: &mut impl Rng, schema: &Schema, q: &Query, count: usize) -> Query {
    let mut extra = Vec::new();
    let vars: Vec<_> = q.vars().collect();
    for _ in 0..count {
        let i = vars[rng.gen_range(0..vars.len())];
        let j = vars[rng.gen_range(0..vars.len())];
        if rng.gen_bool(0.5) {
            if i != j {
                extra.push(Atom::Neq(Term::Var(i), Term::Var(j)));
            }
        } else if let Some([cls]) = q.range_of(j) {
            let set_attrs: Vec<_> = schema
                .effective_type(*cls)
                .iter()
                .filter(|(_, t)| t.is_set())
                .map(|(&a, _)| a)
                .collect();
            if !set_attrs.is_empty() {
                let a = set_attrs[rng.gen_range(0..set_attrs.len())];
                extra.push(Atom::NonMember(i, j, a));
            }
        }
    }
    q.with_extra_atoms(extra)
}

/// The full Theorem 3.1 enumeration (all S × W branches) agrees with the
/// strategy-selected fast path (Corollaries 3.2–3.4 where applicable) on
/// every random pair.
#[test]
fn full_enumeration_agrees_with_fast_paths() {
    for seed in 0..64u64 {
        let schema = test_schema(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa57);
        let p = QueryParams { vars: 3, atoms: 3 };
        let base1 = random_terminal_positive(&mut rng, &schema, &p);
        let base2 = random_terminal_positive(&mut rng, &schema, &p);
        let q1 = add_negative_atoms(&mut rng, &schema, &base1, 1);
        let q2 = add_negative_atoms(&mut rng, &schema, &base2, (seed % 3) as usize);
        let fast = on_engine(&schema, &q1, &q2, &EngineConfig::serial(), Engine::contains).unwrap();
        let full = on_engine(
            &schema,
            &q1,
            &q2,
            &EngineConfig::serial(),
            Engine::contains_full,
        )
        .unwrap();
        assert_eq!(
            fast,
            full,
            "seed {seed}: corollary fast path disagrees with full enumeration for\n  q1 = {}\n  q2 = {}",
            q1.display(&schema),
            q2.display(&schema)
        );
    }
}

/// The decision-relevant part of a certificate: the verdict plus the
/// sequence of augmentations it speaks about. Witness *assignments* may
/// legitimately differ between homomorphism search orders (any
/// non-contradictory mapping certifies a branch), but the verdict, the
/// branch walk, and on failure the first refuting augmentation are fixed
/// by Theorem 3.1 alone.
fn certificate_shape(c: &Containment) -> (bool, Vec<Vec<Atom>>) {
    match c {
        Containment::HoldsVacuously(_) => (true, Vec::new()),
        Containment::Holds(ws) => (true, ws.iter().map(|w| w.augmentation.clone()).collect()),
        Containment::FailsRightUnsatisfiable(_) => (false, Vec::new()),
        Containment::Fails { augmentation } => (false, vec![augmentation.clone()]),
    }
}

/// Homomorphism search order and sub-lattice pruning are decision-neutral:
/// across a seed sweep hitting all four strategies, every variant config —
/// static order, scrambled order, pruning off, and both at once — reaches
/// the same verdict over the same augmentation sequence as the default
/// most-constrained-first pruned engine.
#[test]
fn search_order_and_pruning_preserve_certificate_shapes() {
    for seed in 0..96u64 {
        let schema = test_schema(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb57a);
        let p = QueryParams { vars: 3, atoms: 4 };
        let base1 = random_terminal_positive(&mut rng, &schema, &p);
        let base2 = random_terminal_positive(&mut rng, &schema, &p);
        let q1 = add_negative_atoms(&mut rng, &schema, &base1, (seed % 3) as usize);
        let q2 = add_negative_atoms(&mut rng, &schema, &base2, (seed % 4) as usize);
        let reference =
            on_engine(&schema, &q1, &q2, &EngineConfig::serial(), Engine::decide).unwrap();
        let want = certificate_shape(&reference);
        let variants = [
            EngineConfig::serial().with_search_order(SearchOrder::Static),
            EngineConfig::serial().with_search_order(SearchOrder::Scrambled(
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )),
            EngineConfig::serial().without_pruning(),
            EngineConfig::serial()
                .without_pruning()
                .with_search_order(SearchOrder::Static),
        ];
        for (k, cfg) in variants.iter().enumerate() {
            let got = on_engine(&schema, &q1, &q2, cfg, Engine::decide).unwrap();
            assert_eq!(
                want,
                certificate_shape(&got),
                "seed {seed}, variant {k}: decision drifts for\n  q1 = {}\n  q2 = {}",
                q1.display(&schema),
                q2.display(&schema)
            );
        }
    }
}

/// A block the pruner collapses wholesale: `Q₁` pins `u ∉ y.A`, so `Q₂`'s
/// non-membership maps to `u` with no danger bits and the empty-`W` witness
/// certifies every one of the 2^10 membership subsets. The verdict and the
/// full certificate must match the unpruned engine while the stats show the
/// walk never happened.
#[test]
fn pruning_collapses_dominated_subsets_without_changing_the_certificate() {
    let schema = oocq::samples::example_33();
    let t1 = schema.class_id("T1").unwrap();
    let t2 = schema.class_id("T2").unwrap();
    let a = schema.attr_id("A").unwrap();
    const FLOATERS: usize = 10;

    let mut b = QueryBuilder::new("x0");
    let x0 = b.free();
    b.range(x0, [t1]);
    let u = b.var("u");
    let y = b.var("y");
    b.range(u, [t1]).range(y, [t2]);
    b.member(x0, y, a);
    b.non_member(u, y, a);
    for i in 1..=FLOATERS {
        let zi = b.var(&format!("z{i}"));
        b.range(zi, [t1]);
    }
    let q1 = b.build();

    let mut b = QueryBuilder::new("x");
    let x = b.free();
    let u2 = b.var("u");
    let y2 = b.var("y");
    b.range(x, [t1]).range(u2, [t1]).range(y2, [t2]);
    b.non_member(u2, y2, a);
    let q2 = b.build();

    let run = |cfg: EngineConfig| {
        let engine = Engine::new(cfg);
        let ps = engine.prepare_schema(&schema);
        let p1 = engine.prepare(&ps, &q1);
        let p2 = engine.prepare(&ps, &q2);
        let proof = engine.decide(&p1, &p2).unwrap();
        (proof, p1.stats().branch_stats)
    };

    let (pruned, pstats) = run(EngineConfig::serial());
    let (unpruned, ustats) = run(EngineConfig::serial().without_pruning());
    assert!(pruned.holds());
    assert_eq!(pruned, unpruned, "pruning altered the certificate");

    let total = 1u64 << FLOATERS;
    assert_eq!(pstats.branches_planned, total);
    assert_eq!(ustats.branches_planned, total);
    assert_eq!(
        ustats.branches_evaluated, total,
        "baseline walks everything"
    );
    assert_eq!(ustats.branches_skipped, 0);
    assert_eq!(
        pstats.branches_evaluated, 1,
        "one evaluation should certify the whole block: {pstats:?}"
    );
    assert_eq!(pstats.branches_skipped, total - 1);
    assert!(pstats.mapping_searches >= 1);
    assert!(
        pstats.mapping_searches < ustats.mapping_searches,
        "pruned engine should run far fewer homomorphism searches \
         ({} vs {})",
        pstats.mapping_searches,
        ustats.mapping_searches
    );
}

/// The exhaustive (`without_pruning`) walk honors work budgets and deadlines
/// through exactly the same mechanism as the pruned walk — a recoverable
/// `timeout` error, never a hang — with the same precedence pinned on both
/// paths: a refutation found before exhaustion is conclusive (`Fails`
/// outranks the tripped budget), while a `Holds` claim is only valid for a
/// complete walk, so there the budget error wins.
#[test]
fn budgets_and_deadlines_bind_pruned_and_exhaustive_walks_identically() {
    use oocq::Budget;
    use std::time::Duration;

    let schema = oocq::samples::example_33();
    let t1 = schema.class_id("T1").unwrap();
    let t2 = schema.class_id("T2").unwrap();
    let a = schema.attr_id("A").unwrap();
    const FLOATERS: usize = 10;

    // Q1: the 2^10-branch floater workload of the pruning test.
    let mut b = QueryBuilder::new("x0");
    let x0 = b.free();
    b.range(x0, [t1]);
    let u = b.var("u");
    let y = b.var("y");
    b.range(u, [t1]).range(y, [t2]);
    b.member(x0, y, a);
    b.non_member(u, y, a);
    for i in 1..=FLOATERS {
        let zi = b.var(&format!("z{i}"));
        b.range(zi, [t1]);
    }
    let q1 = b.build();

    // Q2 (holds): certified on every branch, so the verdict needs the whole
    // walk — the workload a budget must be able to interrupt.
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    let u2 = b.var("u");
    let y2 = b.var("y");
    b.range(x, [t1]).range(u2, [t1]).range(y2, [t2]);
    b.non_member(u2, y2, a);
    let q2_holds = b.build();

    // Q2 (fails): same strategy tier as the holds workload (positive with a
    // non-membership, so the identical 2^10 W-space is planned), but its
    // free variable ranges over T2 while Q1's ranges over T1 — no branch
    // admits a mapping, so the very first one refutes and the rest of the
    // space is moot.
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    let u3 = b.var("u");
    let y3 = b.var("y");
    b.range(x, [t2]).range(u3, [t1]).range(y3, [t2]);
    b.non_member(u3, y3, a);
    let q2_fails = b.build();

    let pruned = |budget: Budget| EngineConfig::serial().with_budget(budget);
    let exhaustive = |budget: Budget| EngineConfig::serial().without_pruning().with_budget(budget);

    // Unlimited: identical certificates on both workloads (baseline).
    for q2 in [&q2_holds, &q2_fails] {
        let p = on_engine(
            &schema,
            &q1,
            q2,
            &pruned(Budget::unlimited()),
            Engine::decide,
        )
        .unwrap();
        let e = on_engine(
            &schema,
            &q1,
            q2,
            &exhaustive(Budget::unlimited()),
            Engine::decide,
        )
        .unwrap();
        assert_eq!(p, e, "certificates drift without budgets");
    }
    let reference = on_engine(
        &schema,
        &q1,
        &q2_fails,
        &pruned(Budget::unlimited()),
        Engine::decide,
    )
    .unwrap();
    assert!(!reference.holds());

    // A one-unit work limit: both walks trip the identical recoverable
    // timeout on the holds workload.
    for cfg in [
        pruned(Budget::with_limit(1)),
        exhaustive(Budget::with_limit(1)),
    ] {
        let err = on_engine(&schema, &q1, &q2_holds, &cfg, Engine::decide).unwrap_err();
        assert!(
            err.to_string().starts_with("timeout"),
            "expected a recoverable timeout, got: {err}"
        );
    }

    // A mid-size limit, far below the exhaustive holds-walk (which charges
    // at least one unit per 2^10 branches) but enough to reach the first
    // branch's refutation: the exhaustive walk still trips on the holds
    // workload at this limit...
    const MID: u64 = 512;
    let err = on_engine(
        &schema,
        &q1,
        &q2_holds,
        &exhaustive(Budget::with_limit(MID)),
        Engine::decide,
    )
    .unwrap_err();
    assert!(err.to_string().starts_with("timeout"), "got: {err}");
    // ...while on the refuted workload BOTH walks return the conclusive
    // `Fails` certificate under the very same limit: refutation outranks
    // budget exhaustion on the pruned and exhaustive paths alike.
    for cfg in [
        pruned(Budget::with_limit(MID)),
        exhaustive(Budget::with_limit(MID)),
    ] {
        let got = on_engine(&schema, &q1, &q2_fails, &cfg, Engine::decide).unwrap();
        assert_eq!(got, reference, "refutation must outrank the budget trip");
    }

    // An already-expired deadline: every combination trips the same
    // recoverable timeout before concluding anything.
    for q2 in [&q2_holds, &q2_fails] {
        for cfg in [
            pruned(Budget::with_deadline(Duration::ZERO)),
            exhaustive(Budget::with_deadline(Duration::ZERO)),
        ] {
            let err = on_engine(&schema, &q1, q2, &cfg, Engine::decide).unwrap_err();
            assert!(err.to_string().starts_with("timeout"), "got: {err}");
        }
    }
}
