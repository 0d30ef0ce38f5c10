//! Integration of the introspection tooling: Graphviz exports, schema and
//! state statistics, query displays, and the optimizer session — over
//! generated workloads rather than handcrafted fixtures.

use oocq::gen::StdRng;
use oocq::gen::{random_schema, random_state, workload_schema, SchemaParams, StateParams};
use oocq::{parse_schema, CanonicalDecisionCache, Engine, QueryBuilder};

#[test]
fn schema_dot_round_trips_through_generated_schemas() {
    let mut rng = StdRng::seed_from_u64(99);
    let s = random_schema(&mut rng, &SchemaParams::default());
    let dot = s.to_dot();
    // Every class appears exactly once as a node definition.
    for c in s.classes() {
        let needle = format!("\"{}\" [label=", s.class_name(c));
        assert_eq!(dot.matches(&needle).count(), 1);
    }
    // Edge count equals the number of declared parent links.
    let edges: usize = s.classes().map(|c| s.parents(c).len()).sum();
    assert_eq!(dot.matches(" -> ").count(), edges);
}

#[test]
fn schema_statistics_of_generated_schema() {
    let mut rng = StdRng::seed_from_u64(5);
    let p = SchemaParams {
        roots: 3,
        branching: 4,
        object_attrs: 1,
        set_attrs: 1,
        refine_prob: 0.0,
    };
    let s = random_schema(&mut rng, &p);
    let st = s.statistics();
    assert_eq!(st.roots, 3);
    assert_eq!(st.terminals, 12);
    assert_eq!(st.depth, 1);
    assert_eq!(st.max_fanout, 4);
    assert_eq!(st.declared_attrs, 6); // (1 obj + 1 set) per root
}

#[test]
fn state_statistics_and_dot_agree_on_edge_counts() {
    let s = workload_schema(2);
    let mut rng = StdRng::seed_from_u64(17);
    let st = random_state(
        &mut rng,
        &s,
        &StateParams {
            objects: 20,
            fill_prob: 0.7,
            max_set: 3,
        },
    );
    let stats = st.statistics(&s);
    assert_eq!(stats.objects, 20);
    let dot = st.to_dot(&s);
    // Solid edges = object attrs; dashed edges = set members.
    assert_eq!(dot.matches("style=dashed").count(), stats.set_members);
    let solid = dot.matches(" -> ").count() - stats.set_members;
    assert_eq!(solid, stats.object_attrs);
    // The textual dump mentions every object.
    let dump = st.display(&s).to_string();
    for o in st.oids() {
        assert!(dump.contains(&format!("{o}:")));
    }
}

#[test]
fn oocq_serve_answers_a_containment_request() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_oocq-serve"))
        .env("OOCQ_THREADS", "2")
        .env_remove("OOCQ_LISTEN")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn oocq-serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"stats off\n\
              ping\n\
              schema s class C {}\\nclass D : C {}\\nclass E : C {}\n\
              query s Q { x | x in D }\n\
              query s R { x | x in C }\n\
              contains s Q R\n\
              contains s R Q\n\
              quit\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        [
            "[0] ok stats off",
            "[1] ok pong",
            "[2] ok session s: 3 classes",
            "[3] ok query Q defined in session s",
            "[4] ok query R defined in session s",
            "[5] ok holds",
            "[6] ok FAILS",
            "[7] ok bye",
        ],
        "unexpected daemon transcript:\n{text}"
    );
}

/// `OOCQ_DEADLINE_MS` bounds a branch-explosion `contains` in wall time
/// (the check walks 2^19 membership branches unless the deadline trips),
/// and the same connection keeps answering afterwards. The inequality
/// chain keeps the candidates asymmetric so the decision cache's
/// canonical labeling stays cheap (see DESIGN.md §8).
#[test]
fn oocq_serve_honors_a_request_deadline_and_recovers() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    let vars: Vec<String> = (1..=19).map(|i| format!("x{i}")).collect();
    let chain: String = vars
        .windows(2)
        .map(|w| format!(" & {} != {}", w[0], w[1]))
        .collect();
    let ranges: String = vars.iter().map(|v| format!(" & {v} in T1")).collect();
    let big = format!(
        "{{ x0 | exists {}, z, y: x0 in T1{ranges}{chain} & z in T1 & y in T2 & x0 in y.A & z not in y.A }}",
        vars.join(", "),
    );
    let input = format!(
        "stats off\n\
         schema s class T1 {{}} class T2 {{ A: {{T1}}; }}\n\
         query s Big {big}\n\
         query s R {{ x | exists u, y: x in T1 & u in T1 & y in T2 & u not in y.A }}\n\
         contains s Big R\n\
         ping\n\
         contains s R R\n\
         quit\n"
    );
    let start = std::time::Instant::now();
    let mut child = Command::new(env!("CARGO_BIN_EXE_oocq-serve"))
        .env("OOCQ_THREADS", "2")
        .env("OOCQ_DEADLINE_MS", "50")
        .env_remove("OOCQ_LISTEN")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn oocq-serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(60),
        "deadline must bound wall time"
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[4].starts_with("[4] err timeout"), "{text}");
    assert_eq!(lines[5], "[5] ok pong", "{text}");
    assert_eq!(lines[6], "[6] ok holds", "{text}");
    assert_eq!(lines[7], "[7] ok bye", "{text}");
}

/// A SIGKILL'd `oocq-serve` leaves a replayable verdict log behind: a
/// fresh process over the same `OOCQ_CACHE_DIR` answers the same
/// containment from the pre-warmed cache — zero decision recomputation —
/// and `stats show` reports the replay (DESIGN.md §13).
#[test]
fn oocq_serve_warm_restarts_from_the_persistent_cache() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("oocq-tooling-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const SETUP: &str = "stats off\n\
          schema s class C {}\\nclass D : C {}\n\
          query s Q { x | x in D }\n\
          query s R { x | x in C }\n\
          contains s Q R\n";
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_oocq-serve"))
            .env("OOCQ_THREADS", "2")
            .env("OOCQ_CACHE_DIR", &dir)
            .env_remove("OOCQ_LISTEN")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn oocq-serve")
    };

    // First lifetime: populate the verdict log, then die hard (SIGKILL, no
    // graceful shutdown) — exactly the crash the append-only format must
    // absorb. Killing only after the verdict line guarantees the append
    // has already been issued.
    let mut child = spawn();
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(SETUP.as_bytes()).unwrap();
    stdin.flush().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let verdict = loop {
        let line = lines.next().expect("daemon closed stdout early").unwrap();
        if line.starts_with("[4]") {
            break line;
        }
    };
    assert_eq!(verdict, "[4] ok holds");
    child.kill().unwrap();
    let _ = child.wait();

    // Second lifetime over the same directory: the verdict is served from
    // the replayed log (hits, no misses) and the persistence counters say
    // so. `stats show` is only sent after the verdict line arrives —
    // decision requests run on the worker pool, so sending both up front
    // would let the stats snapshot race the in-flight decision.
    let mut child = spawn();
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(SETUP.as_bytes()).unwrap();
    stdin.flush().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let verdict = loop {
        let line = lines.next().expect("daemon closed stdout early").unwrap();
        if line.starts_with("[4]") {
            break line;
        }
    };
    assert_eq!(verdict, "[4] ok holds");
    stdin.write_all(b"stats show\nquit\n").unwrap();
    stdin.flush().unwrap();
    let stats = lines.next().expect("no stats line").unwrap();
    assert!(
        stats.contains("contains_misses=0") && !stats.contains("contains_hits=0"),
        "restart recomputed instead of hitting: {stats}"
    );
    assert!(
        stats.contains("persist:") && !stats.contains("persist: off"),
        "persistence inactive on restart: {stats}"
    );
    assert!(
        !stats.contains("loaded=0"),
        "restart did not replay the verdict log: {stats}"
    );
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A workload of repeated queries through one engine and its decision
/// cache: each distinct query is minimized once, every repeat is a hit.
#[test]
fn engine_session_over_a_workload() {
    let s = parse_schema(
        "class Vehicle {} class Auto : Vehicle {} class Truck : Vehicle {}
         class Client { R: {Vehicle}; } class Discount : Client { R: {Auto}; }",
    )
    .unwrap();
    let cache = std::sync::Arc::new(CanonicalDecisionCache::new(256));
    let engine = Engine::serial().with_cache(cache.clone());
    let ps = engine.prepare_schema(&s);
    let make = |cls: &str| {
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [s.class_id(cls).unwrap()]);
        b.range(y, [s.class_id("Discount").unwrap()]);
        b.member(x, y, s.attr_id("R").unwrap());
        b.build()
    };
    for _ in 0..5 {
        for cls in ["Vehicle", "Auto", "Truck"] {
            let m = engine.minimize(&engine.prepare(&ps, &make(cls))).unwrap();
            match cls {
                "Truck" => assert!(m.is_empty()), // unsatisfiable
                _ => assert_eq!(m.len(), 1),
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.minimize_misses, 3);
    assert_eq!(stats.minimize_hits, 12);
}

/// `oracle_fuzz` runs end to end in its small preset: the sweep completes
/// with no soundness violations, the confirmation gate passes, and the
/// stats report reaches stdout.
#[test]
fn oracle_fuzz_small_preset_passes() {
    use std::process::Command;
    let out = Command::new(env!("CARGO_BIN_EXE_oracle_fuzz"))
        .args(["--iterations", "small", "--seed", "7"])
        .output()
        .expect("oracle_fuzz must be spawnable");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "oracle_fuzz failed:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("pairs=32"), "{stdout}");
    assert!(stdout.contains("violations=0"), "{stdout}");
    assert!(stdout.trim_end().ends_with("oracle_fuzz: ok"), "{stdout}");
}

/// `bench_load` runs end to end in its quick preset: the reactor and the
/// coalesced/uncoalesced hot-key phases all complete over real sockets,
/// the singleflight floor holds, and the JSON report lands where asked.
#[test]
fn bench_load_quick_preset_passes() {
    use std::process::Command;
    let out_path =
        std::env::temp_dir().join(format!("bench_load_smoke_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_bench_load"))
        .arg(&out_path)
        .env("OOCQ_BENCH_QUICK", "1")
        .output()
        .expect("bench_load must be spawnable");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "bench_load failed:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    let json = std::fs::read_to_string(&out_path).expect("bench_load must write its report");
    std::fs::remove_file(&out_path).ok();
    assert!(json.contains("\"experiment\": \"B11\""), "{json}");
    assert!(json.contains("\"coalesced_vs_uncoalesced\""), "{json}");
    assert!(stdout.contains("coalescing"), "{stdout}");
}

/// `scripts/ci.sh` is runnable and wires the right gates. The heavy stages
/// (build + test) are skipped via `OOCQ_CI_SKIP_HEAVY=1` — this test
/// already runs under `cargo test` and must not recurse into it — so the
/// smoke test exercises the script's plumbing plus the fmt stage (which
/// itself degrades to a skip when rustfmt is absent).
#[test]
fn ci_script_smoke() {
    use std::process::Command;
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/ci.sh");
    let out = Command::new("sh")
        .arg(script)
        .env("OOCQ_CI_SKIP_HEAVY", "1")
        .output()
        .expect("scripts/ci.sh must be spawnable");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "ci.sh failed:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("skipping build and test"), "{stdout}");
    assert!(stdout.trim_end().ends_with("ci: ok"), "{stdout}");
}
