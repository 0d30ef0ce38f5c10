//! The traced run: the same seed and streams, split across the layers.
//!
//! * Two daemon replays, untraced (`stats off`) and traced (`stats on`),
//!   give the reactor/execute split from the `wall_us` suffix, the
//!   flight/cache/persist counters from `stats show`, and the tracing
//!   overhead.
//! * An in-process replay on one thread calls each layer's public
//!   functions in pipeline order on one `PreparedQuery` per operand, so a
//!   memoised artifact is charged to the layer that built it. Decisions use
//!   a serial `Engine` without a cache; the cache layer is a
//!   `CanonicalDecisionCache` configured like the daemon.
//! * The same operations through a `ServiceEngine` give the execute time
//!   the decision layers should account for (`trace.coverage`).
//!
//! `Engine::dispatch` keeps the normalized expansion in a memo cell of its
//! own and compiles constraints internally, so it repeats work the expand
//! and theory layers already timed; the branch layer's self time subtracts
//! those repeats. The in-process replay runs a fixed number of operations,
//! so its counts repeat exactly for a seed.

use crate::client::{drive, start, Window, THREADS};
use crate::report::{median_p99, Metric, J};
use crate::workload::{self, Kind, Op, Plan, Verb};
use crate::{input_facts, knobs, knobs_json, populate, Args, Outcome, Scratch};
use oocq_core::{
    theory_stats, BranchStats, Budget, ConstraintTheory, DecisionCache as _, Engine, EngineConfig,
    PreparedQuery, Side, Theory as _,
};
use oocq_parser::parse_query;
use oocq_query::{Query, UnionQuery};
use oocq_schema::Schema;
use oocq_service::{
    escape, parse_request, render_response, CanonicalDecisionCache, Request, ServiceEngine,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations in the in-process replay, per workload.
fn replay_ops(kind: Kind) -> usize {
    match kind {
        Kind::ColdDecide => 3_000,
        Kind::HotRepeat | Kind::SpillRestart => 20_000,
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Per-layer self times (ns) of the operations where the layer ran.
#[derive(Default)]
struct Layers {
    parse: Vec<u64>,
    render: Vec<u64>,
    query: Vec<u64>,
    prepare: Vec<u64>,
    canonical: Vec<u64>,
    cache: Vec<u64>,
    theory: Vec<u64>,
    expand: Vec<u64>,
    branch: Vec<u64>,
    prepare_builds: u64,
    canonical_calls: u64,
    expand_branches: u64,
    branch_stats: BranchStats,
    mismatches: u64,
}

fn add_branch_stats(sum: &mut BranchStats, s: BranchStats) {
    sum.branches_planned += s.branches_planned;
    sum.branches_evaluated += s.branches_evaluated;
    sum.branches_skipped += s.branches_skipped;
    sum.warm_start_hits += s.warm_start_hits;
    sum.mapping_searches += s.mapping_searches;
    sum.mapping_backtracks += s.mapping_backtracks;
}

/// Which operands `Engine::dispatch`/`minimize` expand for this verb.
fn expanded_operands(verb: Verb, s: &Schema, a: &Query, b: &Query) -> (bool, bool) {
    match verb {
        Verb::Minimize => (true, false),
        _ if a.is_terminal(s) && b.is_terminal(s) => (false, false),
        _ if a.is_positive() && b.is_positive() => (true, true),
        _ => (true, false),
    }
}

fn lookup(
    cache: &CanonicalDecisionCache,
    verb: Verb,
    pa: &PreparedQuery,
    pb: &PreparedQuery,
) -> Option<String> {
    match verb {
        Verb::Contains => cache.get_contains_prepared(pa, pb).map(verdict),
        Verb::Equiv => match cache.get_contains_prepared(pa, pb)? {
            false => Some(verdict(false)),
            true => cache.get_contains_prepared(pb, pa).map(verdict),
        },
        Verb::Minimize => cache
            .get_minimized_prepared(pa)
            .map(|m| workload::minimized_text(&m, pa.schema().schema())),
    }
}

/// The terminal queries a decision runs Theorem 3.1 on: the query itself,
/// or the branches of its expansion.
fn terminal_parts(q: &Query, s: &Schema, expansion: Option<&UnionQuery>) -> Vec<Query> {
    match expansion {
        Some(u) if !q.is_terminal(s) => u.queries().to_vec(),
        _ => vec![q.clone()],
    }
}

/// One operation through every layer. `record` is off for warm-up.
fn traced_op(
    plan: &Plan,
    op: Op,
    cache: &CanonicalDecisionCache,
    l: &mut Layers,
    record: bool,
) -> Result<(), String> {
    let pair = &plan.pairs[op.pair];
    let ses = &plan.sessions[pair.session];
    let schema = ses.schema();
    let verb = pair.verb;
    let mut wire = Vec::new();
    plan.wire(op, 0, &mut wire);
    let wire = String::from_utf8(wire).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = wire.lines().collect();

    let t = Instant::now();
    let reqs = lines
        .iter()
        .map(|l| parse_request(l))
        .collect::<Result<Vec<_>, _>>()?;
    let parse_ns = ns(t);
    let (Request::DefineQuery { text: ta, .. }, Request::DefineQuery { text: tb, .. }) =
        (&reqs[0], &reqs[1])
    else {
        return Err("unexpected request shape".to_owned());
    };

    let t = Instant::now();
    let qa = parse_query(schema, ta).map_err(|e| e.to_string())?;
    let qb = parse_query(schema, tb).map_err(|e| e.to_string())?;
    let query_ns = ns(t);

    let engine = Engine::new(EngineConfig::serial());
    let t = Instant::now();
    let pa = engine.prepare(&ses.prepared, &qa);
    black_box(pa.analysis());
    let pb = engine.prepare(&ses.prepared, &qb);
    black_box(pb.analysis());
    let prepare_ns = ns(t);

    let err = |e: oocq_core::CoreError| e.to_string();
    let mut canonical_ns = None;
    if verb != Verb::Minimize {
        let t = Instant::now();
        pa.try_canonical_form(&Budget::unlimited()).map_err(err)?;
        pb.try_canonical_form(&Budget::unlimited()).map_err(err)?;
        canonical_ns = Some(ns(t));
        l.canonical_calls += 2;
    }

    let t = Instant::now();
    let cached = lookup(cache, verb, &pa, &pb);
    let mut cache_ns = ns(t);

    let mut expand_ns = None;
    let mut theory_ns = None;
    let mut branch_ns = None;
    let payload = match cached {
        Some(p) => p,
        None => {
            let (exp_a, exp_b) = expanded_operands(verb, schema, &qa, &qb);
            let t = Instant::now();
            let ua = if exp_a {
                Some(engine.expand_satisfiable(&pa).map_err(err)?)
            } else {
                None
            };
            let ub = if exp_b {
                Some(engine.expand_satisfiable(&pb).map_err(err)?)
            } else {
                None
            };
            if exp_a || exp_b {
                expand_ns = Some(ns(t));
                l.expand_branches += (ua.as_ref().map_or(0, UnionQuery::len)
                    + ub.as_ref().map_or(0, UnionQuery::len))
                    as u64;
            }
            if ses.constrained {
                let lefts = terminal_parts(&qa, schema, ua.as_ref());
                let rights = if verb == Verb::Minimize {
                    lefts.clone()
                } else {
                    terminal_parts(&qb, schema, ub.as_ref())
                };
                let budget = Budget::unlimited();
                let t = Instant::now();
                let theory = ConstraintTheory::for_schema(schema);
                for q in &lefts {
                    let _ = black_box(theory.compile(schema, Side::Left, q, &budget));
                }
                for q in &rights {
                    let _ = black_box(theory.compile(schema, Side::Right, q, &budget));
                }
                if verb == Verb::Equiv {
                    for q in &rights {
                        let _ = black_box(theory.compile(schema, Side::Left, q, &budget));
                    }
                    for q in &lefts {
                        let _ = black_box(theory.compile(schema, Side::Right, q, &budget));
                    }
                }
                theory_ns = Some(ns(t));
            }
            let t = Instant::now();
            // `contains` and `equiv` give the verdict of each direction
            // decided (`equiv` stops at a failing first one); `minimize`
            // gives the union.
            let (h1, h2, minimized) = match verb {
                Verb::Minimize => (false, None, Some(engine.minimize(&pa).map_err(err)?)),
                _ => {
                    let h1 = engine.dispatch(&pa, &pb).map_err(err)?;
                    let h2 = if verb == Verb::Equiv && h1 {
                        Some(engine.dispatch(&pb, &pa).map_err(err)?)
                    } else {
                        None
                    };
                    (h1, h2, None)
                }
            };
            let dispatch_ns = ns(t);
            branch_ns =
                Some(dispatch_ns.saturating_sub(expand_ns.unwrap_or(0) + theory_ns.unwrap_or(0)));
            let t = Instant::now();
            match &minimized {
                Some(m) => cache.put_minimized_prepared(&pa, m),
                None => {
                    cache.put_contains_prepared(&pa, &pb, h1);
                    if let Some(h2) = h2 {
                        cache.put_contains_prepared(&pb, &pa, h2);
                    }
                }
            }
            cache_ns += ns(t);
            let payload = match minimized {
                Some(m) => workload::minimized_text(&m, schema),
                None => verdict(h1 && (verb == Verb::Contains || h2 == Some(true))),
            };
            add_branch_stats(&mut l.branch_stats, pa.stats().branch_stats);
            add_branch_stats(&mut l.branch_stats, pb.stats().branch_stats);
            payload
        }
    };

    let acks = [
        Ok(format!("query a0 defined in session {}", ses.name)),
        Ok(format!("query b0 defined in session {}", ses.name)),
        Ok(payload),
    ];
    let t = Instant::now();
    let rendered: Vec<String> = acks
        .iter()
        .enumerate()
        .map(|(i, r)| render_response(i as u64, r, None))
        .collect();
    let render_ns = ns(t);
    if let Ok(p) = &acks[2] {
        if escape(p) != pair.expect {
            l.mismatches += 1;
        }
    }
    black_box(rendered);

    l.prepare_builds += (pa.stats().total_builds() + pb.stats().total_builds()) as u64;
    if record {
        l.parse.push(parse_ns);
        l.query.push(query_ns);
        l.prepare.push(prepare_ns);
        l.cache.push(cache_ns);
        l.render.push(render_ns);
        for (v, x) in [
            (&mut l.canonical, canonical_ns),
            (&mut l.theory, theory_ns),
            (&mut l.expand, expand_ns),
            (&mut l.branch, branch_ns),
        ] {
            if let Some(x) = x {
                v.push(x);
            }
        }
    }
    Ok(())
}

fn verdict(h: bool) -> String {
    if h { "holds" } else { "FAILS" }.to_owned()
}

/// Copy a cache directory (the decision log and its lock marker).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn log_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "log"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh cache like the daemon's: over a copy of the populated log for
/// `spill_restart` (returning the replay time), memory-only otherwise.
fn fresh_cache(
    plan: &Plan,
    populated: Option<&Path>,
    copy: PathBuf,
) -> Result<(CanonicalDecisionCache, f64), String> {
    match populated {
        Some(src) => {
            copy_dir(src, &copy)?;
            let t = Instant::now();
            let c = CanonicalDecisionCache::with_persistence(
                plan.cache_capacity,
                &copy,
                plan.disk_capacity,
            )
            .map_err(|e| e.to_string())?;
            Ok((c, t.elapsed().as_secs_f64()))
        }
        None => Ok((CanonicalDecisionCache::new(plan.cache_capacity), 0.0)),
    }
}

struct Replay {
    window: Window,
    delta: HashMap<String, u64>,
    after: HashMap<String, u64>,
    log_bytes: u64,
}

/// One daemon replay of the measured stream for `secs`.
fn daemon_replay(
    args: &Args,
    plan: &Plan,
    populated: Option<&Path>,
    dir: PathBuf,
    stats_on: bool,
    secs: Duration,
) -> Result<Replay, String> {
    if let Some(src) = populated {
        copy_dir(src, &dir)?;
    }
    let k = knobs(plan, Some(dir.clone()));
    let io = |e: std::io::Error| e.to_string();
    let mut s = start(&args.server, &k, plan, stats_on).map_err(io)?;
    let warm = drive(&mut s.conns, plan, &mut plan.warmup(), plan.depth, None).map_err(io)?;
    let before = s.conns[0].stats_show().map_err(io)?;
    let mut window = drive(
        &mut s.conns,
        plan,
        &mut plan.measured(),
        plan.depth,
        Some(secs),
    )
    .map_err(io)?;
    let after = s.conns[0].stats_show().map_err(io)?;
    drop(s);
    window.mismatches += warm.mismatches;
    window.failed += warm.failed;
    let delta = after
        .iter()
        .map(|(k, &v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect();
    Ok(Replay {
        window,
        delta,
        after,
        log_bytes: if populated.is_some() {
            log_bytes(&dir)
        } else {
            0
        },
    })
}

/// `ServiceEngine::execute` time (ns) per measured operation, configured
/// like the daemon. Returns the samples and the verdict mismatches.
fn service_pass(
    plan: &Plan,
    cache: CanonicalDecisionCache,
    warm: &[Op],
    ops: &[Op],
) -> Result<(Vec<u64>, u64), String> {
    let se = ServiceEngine::with_cache(EngineConfig::with_threads(THREADS), Some(Arc::new(cache)));
    for s in &plan.sessions {
        se.define_schema(&s.name, &s.text)?;
    }
    let mut exec = Vec::with_capacity(ops.len());
    let mut mismatches = 0;
    for (op, timed) in warm
        .iter()
        .map(|o| (o, false))
        .chain(ops.iter().map(|o| (o, true)))
    {
        let p = &plan.pairs[op.pair];
        let session = plan.sessions[p.session].name.clone();
        let (a, b) = &p.texts[op.variant];
        se.define_query(&session, "a0", a)?;
        se.define_query(&session, "b0", b)?;
        let (q1, q2) = ("a0".to_owned(), "b0".to_owned());
        let req = match p.verb {
            Verb::Contains => Request::Contains { session, q1, q2 },
            Verb::Equiv => Request::Equivalent { session, q1, q2 },
            Verb::Minimize => Request::Minimize { session, query: q1 },
        };
        let snap = se.snapshot_for(&req)?;
        let t = Instant::now();
        let (res, _) = se.execute(&req, snap.as_ref());
        let dt = ns(t);
        if timed {
            exec.push(dt);
        }
        if res.map(|r| escape(&r)).as_deref() != Ok(p.expect.as_str()) {
            mismatches += 1;
        }
    }
    Ok((exec, mismatches))
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    // Each replay restarts the stream and lasts a quarter of the run, so
    // half the end-to-end pool is plenty. Pools are prefix-stable: these
    // are the same first pairs the end-to-end run sends.
    let plan = Plan::build(args.kind, args.seed, args.seconds / 2.0)?;
    let spill = plan.kind == Kind::SpillRestart;
    let populated_dir = scratch.path("populated");
    let mut mismatches = 0;
    if spill {
        mismatches += populate(args, &plan, &populated_dir)?.mismatches;
    }
    let populated = spill.then_some(populated_dir.as_path());

    // Daemon replays, a quarter of the run each.
    let secs = Duration::from_secs_f64(args.seconds / 4.0);
    let untraced = daemon_replay(
        args,
        &plan,
        populated,
        scratch.path("replay-off"),
        false,
        secs,
    )?;
    let traced = daemon_replay(
        args,
        &plan,
        populated,
        scratch.path("replay-on"),
        true,
        secs,
    )?;

    // In-process replay of a fixed prefix of the same stream.
    let warm: Vec<Op> = plan.warmup().collect();
    let ops: Vec<Op> = plan.measured().take(replay_ops(plan.kind)).collect();
    let (cache, replay_s) = fresh_cache(&plan, populated, scratch.path("inproc"))?;
    let mut l = Layers::default();
    for &op in &warm {
        traced_op(&plan, op, &cache, &mut l, false)?;
    }
    l = Layers {
        mismatches: l.mismatches,
        ..Layers::default()
    };
    let theory_before = theory_stats();
    for &op in &ops {
        traced_op(&plan, op, &cache, &mut l, true)?;
    }
    let theory_after = theory_stats();
    drop(cache);
    let (service_cache, _) = fresh_cache(&plan, populated, scratch.path("service"))?;
    let (mut exec, service_mismatches) = service_pass(&plan, service_cache, &warm, &ops)?;

    mismatches +=
        untraced.window.mismatches + traced.window.mismatches + l.mismatches + service_mismatches;
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let exec_total = sum(&exec).max(1.0);
    let core = sum(&l.theory) + sum(&l.expand) + sum(&l.branch);
    let coverage = (core + sum(&l.canonical) + sum(&l.cache)) / exec_total;

    let d = |k: &str| traced.delta.get(k).copied().unwrap_or(0);
    let lookups = d("cache.contains_hits")
        + d("cache.contains_misses")
        + d("cache.minimize_hits")
        + d("cache.minimize_misses");
    let t1_hits = (d("cache.contains_hits") + d("cache.minimize_hits"))
        .saturating_sub(d("persist.tier2_hits"));
    let (leaders, waiters) = (d("coalesce.leaders"), d("coalesce.waiters"));
    let entries = traced.after.get("persist.entries").copied().unwrap_or(0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m = Vec::new();
    let timing = |name_p50: &'static str,
                  name_p99: &'static str,
                  unit: &'static str,
                  v: &mut Vec<u64>,
                  m: &mut Vec<Metric>| {
        let (p50, p99) = median_p99(v);
        m.push(Metric {
            name: name_p50,
            unit,
            value: p50 as f64,
        });
        m.push(Metric {
            name: name_p99,
            unit,
            value: p99 as f64,
        });
    };
    timing(
        "protocol.parse_ns",
        "protocol.parse_ns_p99",
        "ns",
        &mut l.parse,
        &mut m,
    );
    timing(
        "protocol.render_ns",
        "protocol.render_ns_p99",
        "ns",
        &mut l.render,
        &mut m,
    );
    timing(
        "parser.query_ns",
        "parser.query_ns_p99",
        "ns",
        &mut l.query,
        &mut m,
    );
    timing("prepare.ns", "prepare.ns_p99", "ns", &mut l.prepare, &mut m);
    timing(
        "canonical.ns",
        "canonical.ns_p99",
        "ns",
        &mut l.canonical,
        &mut m,
    );
    timing(
        "cache.t1_lookup_ns",
        "cache.t1_lookup_ns_p99",
        "ns",
        &mut l.cache,
        &mut m,
    );
    timing(
        "theory.compile_ns",
        "theory.compile_ns_p99",
        "ns",
        &mut l.theory,
        &mut m,
    );
    timing("expand.ns", "expand.ns_p99", "ns", &mut l.expand, &mut m);
    timing(
        "branch.decide_ns",
        "branch.decide_ns_p99",
        "ns",
        &mut l.branch,
        &mut m,
    );
    let mut overhead = traced.window.overhead_us.clone();
    timing(
        "reactor.overhead_us_p50",
        "reactor.overhead_us_p99",
        "us",
        &mut overhead,
        &mut m,
    );
    let mut wall = traced.window.wall_us.clone();
    timing(
        "service.execute_us_p50",
        "service.execute_us_p99",
        "us",
        &mut wall,
        &mut m,
    );
    let b = l.branch_stats;
    let counts: [(&'static str, &'static str, f64); 21] = [
        ("prepare.builds", "count", l.prepare_builds as f64),
        ("canonical.calls", "count", l.canonical_calls as f64),
        ("flight.leaders", "count", leaders as f64),
        ("flight.waiters", "count", waiters as f64),
        (
            "flight.coalesced_ratio",
            "ratio",
            ratio(waiters as f64, (leaders + waiters) as f64),
        ),
        (
            "cache.t1_hit_ratio",
            "ratio",
            ratio(t1_hits as f64, lookups as f64),
        ),
        ("cache.evictions", "count", d("cache.evictions") as f64),
        ("cache.t2_hits", "count", d("persist.tier2_hits") as f64),
        ("persist.appended", "count", d("persist.appended") as f64),
        (
            "persist.compactions",
            "count",
            d("persist.compactions") as f64,
        ),
        (
            "persist.log_bytes_per_entry",
            "bytes",
            ratio(traced.log_bytes as f64, entries as f64),
        ),
        ("persist.replay_s", "s", replay_s),
        (
            "theory.chase_atoms",
            "count",
            (theory_after.chase_atoms - theory_before.chase_atoms) as f64,
        ),
        (
            "theory.dead_branches",
            "count",
            (theory_after.dead_branches - theory_before.dead_branches) as f64,
        ),
        ("expand.branches", "count", l.expand_branches as f64),
        ("branch.planned", "count", b.branches_planned as f64),
        ("branch.evaluated", "count", b.branches_evaluated as f64),
        (
            "branch.skipped_ratio",
            "ratio",
            ratio(b.branches_skipped as f64, b.branches_planned as f64),
        ),
        ("branch.warm_start_hits", "count", b.warm_start_hits as f64),
        (
            "branch.mapping_searches",
            "count",
            b.mapping_searches as f64,
        ),
        (
            "branch.mapping_backtracks",
            "count",
            b.mapping_backtracks as f64,
        ),
    ];
    for (name, unit, value) in counts {
        m.push(Metric { name, unit, value });
    }
    m.push(Metric {
        name: "core.execute_share",
        unit: "ratio",
        value: core / exec_total,
    });
    m.push(Metric {
        name: "trace.coverage",
        unit: "ratio",
        value: coverage,
    });
    let overhead_ratio = ratio(untraced.window.throughput(), traced.window.throughput()) - 1.0;
    m.push(Metric {
        name: "trace.overhead",
        unit: "ratio",
        value: overhead_ratio,
    });
    let (exec_p50, _) = median_p99(&mut exec);

    let knobs_used = knobs(&plan, populated.map(|_| scratch.path("replay-on")));
    let detail = J::obj(vec![
        ("workload", J::str(plan.kind.name())),
        ("trace", J::Bool(true)),
        ("host", crate::report::host_facts(args.seed)),
        ("daemon", knobs_json(&knobs_used)),
        ("inputs", input_facts(&plan, &traced.window)),
        ("in_process_operations", J::Int(ops.len() as u64)),
        ("service_execute_ns_p50", J::Int(exec_p50)),
        ("untraced_rps", J::Num(untraced.window.throughput())),
        ("traced_rps", J::Num(traced.window.throughput())),
        (
            "theory_decisions",
            J::Int(theory_after.decisions - theory_before.decisions),
        ),
        ("verdict_mismatches", J::Int(mismatches)),
        (
            "mismatch_sample",
            J::Arr(
                traced
                    .window
                    .mismatch_sample
                    .iter()
                    .cloned()
                    .map(J::Str)
                    .collect(),
            ),
        ),
    ]);
    let attempted = untraced.window.attempted() + traced.window.attempted() + ops.len() as u64;
    Ok(Outcome {
        detail,
        correct: mismatches == 0,
        attempted,
        failed: untraced.window.failed + traced.window.failed,
        metrics: m,
    })
}
