//! Heap allocations per hot operation on the serving path.
//!
//! A counting global allocator wraps the system one. The test drives the
//! in-process reactor through the operation a `hot_repeat` client repeats:
//! define `a`, define `b` (fresh renamed and shuffled texts each time, so
//! both operands are parsed, prepared and labeled anew), then a `contains`
//! whose verdict is already in tier 1. Every allocation the process makes
//! while the measured operations run is counted, split by thread: the
//! reactor thread, the client (this test), and the rest (the worker pool).
//!
//! The bound is half of what the same test measured before sessions were
//! updated in place and the labeler reused its buffers (EXPERIMENTS.md P6
//! records both counts). Counts differ a little between build profiles, so
//! `scripts/ci.sh` runs this test in release too.

#![cfg(target_os = "linux")]

use oocq_core::EngineConfig;
use oocq_service::{CanonicalDecisionCache, ServiceEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) by thread role.
static REACTOR: AtomicU64 = AtomicU64::new(0);
static CLIENT: AtomicU64 = AtomicU64::new(0);
static OTHER: AtomicU64 = AtomicU64::new(0);
static PROBE: AtomicU64 = AtomicU64::new(0);

#[derive(Clone, Copy)]
enum Role {
    Reactor,
    Client,
    Other,
    /// The layer-by-layer probe, which calls each layer on its own thread.
    Probe,
}

thread_local! {
    static ROLE: Cell<Role> = const { Cell::new(Role::Other) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: a thread's own teardown may allocate after its
        // thread-locals are gone.
        let role = ROLE.try_with(Cell::get).unwrap_or(Role::Other);
        match role {
            Role::Reactor => &REACTOR,
            Role::Client => &CLIENT,
            Role::Other => &OTHER,
            Role::Probe => &PROBE,
        }
        .fetch_add(1, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per operation that this test measured on the serving path
/// before sessions were updated in place and the labeler reused its
/// buffers: 119.4 to 119.8 over release and debug runs (reactor 67.0,
/// workers 52.4 to 52.8).
const BEFORE: f64 = 119.4;

const SCHEMA: &str = "schema s class P { A: {P}; B: P; } class C : P {} class D : P {}";

/// Variable names for the renamed copies.
const NAMES: [[&str; 4]; 4] = [
    ["x", "y", "z", "u"],
    ["v0", "v1", "v2", "v3"],
    ["o", "m", "n", "k"],
    ["q", "w", "e", "r"],
];

/// The left operand, renamed and with its atoms rotated by `turn`. Every
/// variable ranges over a terminal class, as most `hot_repeat` queries do,
/// so the decision is one tier-1 lookup.
fn left(names: [&str; 4], turn: usize) -> String {
    let [x, y, z, w] = names;
    let mut atoms = [
        format!("{x} in C"),
        format!("{y} in C"),
        format!("{z} in D"),
        format!("{w} in D"),
        format!("{y} in {x}.A"),
        format!("{z} in {y}.A"),
        format!("{w} not in {x}.A"),
        format!("{x}.B = {z}"),
    ];
    let n = atoms.len();
    atoms.rotate_left(turn % n);
    format!("{{ {x} | exists {y}, {z}, {w}: {} }}", atoms.join(" & "))
}

/// The right operand: implied by the left one.
fn right(names: [&str; 4], turn: usize) -> String {
    let [x, y, z, _] = names;
    let mut atoms = [
        format!("{x} in C"),
        format!("{y} in C"),
        format!("{z} in D"),
        format!("{y} in {x}.A"),
        format!("{z} in {y}.A"),
    ];
    let n = atoms.len();
    atoms.rotate_left(turn % n);
    format!("{{ {x} | exists {y}, {z}: {} }}", atoms.join(" & "))
}

/// One operation's three request lines.
fn operation(i: usize) -> Vec<u8> {
    let (na, nb) = (NAMES[i % NAMES.len()], NAMES[(i / 2 + 1) % NAMES.len()]);
    format!(
        "query s a {}\nquery s b {}\ncontains s a b\n",
        left(na, i),
        right(nb, i / 3)
    )
    .into_bytes()
}

/// Read until `lines` more newlines arrived; returns how many of the
/// completed lines were `err` responses (`[seq] err …`).
fn read_lines(s: &mut TcpStream, buf: &mut [u8], mut lines: usize) -> usize {
    /// `] err` in the low five bytes.
    const ERR: u64 = u64::from_be_bytes([0, 0, 0, b']', b' ', b'e', b'r', b'r']);
    let mut bad = 0;
    // The last five bytes read, across reads.
    let mut last = 0u64;
    while lines > 0 {
        let n = s.read(buf).expect("read");
        assert!(n > 0, "server closed the connection");
        for &b in &buf[..n] {
            last = (last << 8 | u64::from(b)) & 0xff_ffff_ffff;
            bad += usize::from(last == ERR);
            lines -= usize::from(b == b'\n');
        }
    }
    bad
}

#[test]
fn hot_operations_allocate_at_most_half_as_often_as_before() {
    ROLE.with(|r| r.set(Role::Client));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let server = std::thread::spawn(move || {
        ROLE.with(|r| r.set(Role::Reactor));
        let engine = ServiceEngine::with_cache(
            EngineConfig::with_threads(2),
            Some(Arc::new(CanonicalDecisionCache::new(4096))),
        );
        oocq_service::reactor::run(&listener, &engine, &stop2)
    });

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    s.write_all(format!("stats off\n{SCHEMA}\n").as_bytes())
        .unwrap();
    assert_eq!(read_lines(&mut s, &mut buf, 2), 0);

    // Every request is rendered before the count starts, so the client
    // allocates nothing while it runs.
    const WARM: usize = 200;
    const MEASURED: usize = 2000;
    /// Operations in flight at once, as a pipelining client keeps them.
    const DEPTH: usize = 4;
    let ops: Vec<Vec<u8>> = (0..WARM + MEASURED).map(operation).collect();
    let mut run = |ops: &[Vec<u8>]| -> usize {
        let mut bad = 0;
        for chunk in ops.chunks(DEPTH) {
            for op in chunk {
                s.write_all(op).unwrap();
            }
            bad += read_lines(&mut s, &mut buf, 3 * chunk.len());
        }
        bad
    };
    assert_eq!(run(&ops[..WARM]), 0, "warm-up requests failed");
    let counters = [&REACTOR, &CLIENT, &OTHER];
    let before: Vec<u64> = counters.iter().map(|c| c.load(SeqCst)).collect();
    let bad = run(&ops[WARM..]);
    let after: Vec<u64> = counters.iter().map(|c| c.load(SeqCst)).collect();
    assert_eq!(bad, 0, "measured requests failed");

    let per_op: Vec<f64> = before
        .iter()
        .zip(&after)
        .map(|(b, a)| (a - b) as f64 / MEASURED as f64)
        .collect();
    let (reactor, client, workers) = (per_op[0], per_op[1], per_op[2]);
    let total = reactor + workers;
    println!(
        "allocations per operation: {total:.1} (reactor {reactor:.1}, workers {workers:.1}; \
         client {client:.1})"
    );
    drop(s);
    stop.store(true, SeqCst);
    server.join().unwrap().unwrap();
    assert!(
        total <= BEFORE / 2.0,
        "{total:.1} allocations per operation, over half of {BEFORE}"
    );
}

/// Allocations of one call on this (probe) thread.
fn probe<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = PROBE.load(SeqCst);
    let out = f();
    (out, PROBE.load(SeqCst) - before)
}

/// The same operation one layer at a time on a single thread, printed per
/// layer: request parsing, the two definitions (query parser, prepared
/// handle, session update), the capture, the execution (labeling both
/// operands and the tier-1 hit) and response rendering. Nothing is
/// asserted beyond the verdict; the numbers feed EXPERIMENTS.md P6.
#[test]
fn allocations_by_layer() {
    use oocq_service::{parse_request, render_response, Request};
    ROLE.with(|r| r.set(Role::Probe));
    let engine = ServiceEngine::with_cache(
        EngineConfig::with_threads(2),
        Some(Arc::new(CanonicalDecisionCache::new(4096))),
    );
    let schema = parse_request(SCHEMA).unwrap();
    let Request::DefineSchema { session, text } = schema else {
        panic!("not a schema line");
    };
    engine.define_schema(&session, &text).unwrap();
    const WARM: usize = 200;
    const MEASURED: usize = 1000;
    let ops: Vec<String> = (0..WARM + MEASURED)
        .map(|i| String::from_utf8(operation(i)).unwrap())
        .collect();
    let mut sums = [0u64; 6];
    for (i, op) in ops.iter().enumerate() {
        let lines: Vec<&str> = op.lines().collect();
        let (reqs, parse) = probe(|| {
            lines
                .iter()
                .map(|l| parse_request(l).unwrap())
                .collect::<Vec<_>>()
        });
        let mut define = 0;
        let mut acks = Vec::with_capacity(3);
        for req in &reqs[..2] {
            let Request::DefineQuery {
                session,
                name,
                text,
            } = req
            else {
                panic!("not a query line");
            };
            let (ack, n) = probe(|| engine.define_query(session, name, text));
            acks.push(ack);
            define += n;
        }
        let (snap, capture) = probe(|| engine.snapshot_for(&reqs[2]).unwrap());
        let ((result, _), execute) = probe(|| engine.execute(&reqs[2], snap.as_ref()));
        assert_eq!(result.as_deref(), Ok("holds"));
        acks.push(result);
        let (_, render) = probe(|| {
            for (seq, ack) in acks.iter().enumerate() {
                render_response(seq as u64, ack, None);
            }
        });
        if i >= WARM {
            for (sum, n) in sums
                .iter_mut()
                .zip([parse, define, capture, execute, render])
            {
                *sum += n;
            }
            sums[5] += parse + define + capture + execute + render;
        }
    }
    let per = |n: u64| n as f64 / MEASURED as f64;
    println!(
        "allocations per operation by layer: parse {:.1}, define {:.1}, capture {:.1}, \
         execute {:.1}, render {:.1}; total {:.1}",
        per(sums[0]),
        per(sums[1]),
        per(sums[2]),
        per(sums[3]),
        per(sums[4]),
        per(sums[5])
    );
}
