//! Emits `BENCH_load.json` (experiment **B11**): throughput and latency of
//! the serving layer under connection concurrency — the first
//! load-oriented point in the bench trajectory (B8 measured per-request
//! cache latency; this measures the transport).
//!
//! Three phases, each against an in-process reactor on a loopback socket,
//! driven by a single-threaded poll-multiplexed client so the measurement
//! itself stays cheap at a thousand connections:
//!
//! * **reactor** — a cheap cached-containment workload pipelined over many
//!   concurrent connections, all multiplexed over one fixed worker pool.
//! * **coalesced / uncoalesced** — every connection hammers the *same*
//!   expensive containment check with the decision cache disabled, with
//!   singleflight coalescing on and off. Coalescing collapses each wave of
//!   identical requests into one branch-engine computation fanned out to
//!   all waiters.
//!
//! In-binary floor (the acceptance bar for this experiment): coalesced
//! hot-key throughput must be ≥5× uncoalesced.
//!
//! Usage: `bench_load [OUT.json]` (default `BENCH_load.json`).
//! `OOCQ_BENCH_QUICK=1` selects a small smoke preset (fewer connections).
//! The reactor and this client both sleep on epoll, so the bench runs on
//! Linux only.

#![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]

use oocq_core::EngineConfig;
use oocq_service::poll::PollEvent;
#[cfg(target_os = "linux")]
use oocq_service::{poll::Poller, reactor::Loopback};
use oocq_service::{CanonicalDecisionCache, ServiceEngine};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cheap workload: a containment that is a warm cache hit after the
/// first request, so the serving layer (not the engine) dominates.
const CHEAP_SCHEMA: &str = "class C {}";
const CHEAP_QUERY: &str = "{ x | x in C }";
const CHEAP_REQUEST: &str = "contains s Q Q";

/// The hot-key workload: a `Strategy::Full` containment whose branch walk
/// costs a few milliseconds cold — and the cache is disabled, so without
/// coalescing every request pays it.
const HOT_SCHEMA: &str = "class C { items: {C}; }";
const HOT_LEFT: &str = "{ x | exists y0, y1, u, z0, z1, z2: x in C & y0 in C & y0 in x.items \
                        & y1 in C & y1 in x.items & u in C & u not in x.items \
                        & z0 in C & z1 in C & z2 in C }";
const HOT_RIGHT: &str = "{ x | exists y, u2: x in C & y in C & u2 in C & y in x.items \
                         & u2 not in x.items & y != u2 }";
const HOT_REQUEST: &str = "contains s P Q";

struct Preset {
    connections: usize,
    requests_per_conn: usize,
    pipeline_depth: usize,
    hot_connections: usize,
    hot_requests_per_conn: usize,
}

impl Preset {
    fn from_env() -> Preset {
        if std::env::var("OOCQ_BENCH_QUICK").is_ok_and(|v| v.trim() == "1") {
            Preset {
                connections: 96,
                requests_per_conn: 5,
                pipeline_depth: 2,
                hot_connections: 16,
                hot_requests_per_conn: 3,
            }
        } else {
            Preset {
                connections: 1000,
                requests_per_conn: 20,
                pipeline_depth: 4,
                hot_connections: 64,
                hot_requests_per_conn: 8,
            }
        }
    }
}

/// One client connection's state in the poll-multiplexed load generator.
struct ClientConn {
    stream: TcpStream,
    outbuf: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Requests written but unanswered, oldest first (send timestamps).
    awaiting: VecDeque<Instant>,
    sent: usize,
    done: usize,
    /// Still draining the untimed `stats off` handshake ack.
    in_setup: bool,
    want_write: bool,
}

impl ClientConn {
    fn queue(&mut self, line: &str) {
        self.outbuf.extend_from_slice(line.as_bytes());
        self.outbuf.push(b'\n');
    }

    fn flush(&mut self) {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("client write failed: {e}"),
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        }
    }
}

struct Phase {
    name: &'static str,
    connections: usize,
    requests: usize,
    wall: Duration,
    /// Per-request latencies in nanoseconds, sorted ascending.
    latencies: Vec<u64>,
}

impl Phase {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64()
    }

    fn percentile_us(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let idx =
            ((self.latencies.len() as f64 * p).ceil() as usize).clamp(1, self.latencies.len()) - 1;
        self.latencies[idx] as f64 / 1000.0
    }
}

/// Drive `connections` pipelined connections, each sending
/// `requests_per_conn` copies of `request` with up to `depth` in flight,
/// against `addr`. Returns wall time and per-request latencies. The
/// connect + `stats off` handshake is excluded from the measurement.
#[cfg(target_os = "linux")]
fn run_phase(
    name: &'static str,
    addr: SocketAddr,
    connections: usize,
    requests_per_conn: usize,
    depth: usize,
    request: &str,
) -> Phase {
    let mut poller = Poller::new().expect("poller");
    let mut conns = Vec::with_capacity(connections);
    for token in 0..connections {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true).expect("nonblocking client");
        poller
            .register(stream.as_raw_fd(), token as u64, true, false)
            .expect("register client");
        let mut conn = ClientConn {
            stream,
            outbuf: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            awaiting: VecDeque::new(),
            sent: 0,
            done: 0,
            in_setup: true,
            want_write: false,
        };
        conn.queue("stats off");
        conn.flush();
        conns.push(conn);
    }

    let mut latencies: Vec<u64> = Vec::with_capacity(connections * requests_per_conn);
    let mut events: Vec<PollEvent> = Vec::new();
    let mut outstanding = connections * requests_per_conn;
    let mut setup_left = connections;
    let mut started: Option<Instant> = None;
    let mut buf = [0u8; 16 * 1024];
    while outstanding > 0 {
        // The measured clock starts once every handshake ack is in.
        if setup_left == 0 && started.is_none() {
            let now = Instant::now();
            started = Some(now);
            for conn in conns.iter_mut() {
                while conn.sent < requests_per_conn && conn.awaiting.len() < depth {
                    conn.queue(request);
                    conn.awaiting.push_back(Instant::now());
                    conn.sent += 1;
                }
                conn.flush();
            }
        }
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(200)))
            .expect("poll wait");
        for ev in &events {
            let conn = &mut conns[ev.token as usize];
            if ev.writable {
                conn.flush();
            }
            if !ev.readable {
                continue;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => panic!("{name}: server closed connection {} early", ev.token),
                    Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => panic!("{name}: client read failed: {e}"),
                }
            }
            // Consume every complete response line buffered so far.
            let mut consumed = 0;
            while let Some(idx) = conn.inbuf[consumed..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&conn.inbuf[consumed..consumed + idx]);
                assert!(
                    line.contains("] ok "),
                    "{name}: request failed on connection {}: {line}",
                    ev.token
                );
                consumed += idx + 1;
                if conn.in_setup {
                    conn.in_setup = false;
                    setup_left -= 1;
                    continue;
                }
                let sent_at = conn.awaiting.pop_front().expect("unsolicited response");
                latencies.push(sent_at.elapsed().as_nanos() as u64);
                conn.done += 1;
                outstanding -= 1;
                if conn.sent < requests_per_conn {
                    conn.queue(request);
                    conn.awaiting.push_back(Instant::now());
                    conn.sent += 1;
                }
            }
            conn.inbuf.drain(..consumed);
            conn.flush();
        }
        // Keep write interest in sync with buffered output (a large
        // pipelined burst can overrun the socket buffer).
        for (token, conn) in conns.iter_mut().enumerate() {
            let want = conn.out_pos < conn.outbuf.len();
            if want != conn.want_write {
                poller
                    .modify(conn.stream.as_raw_fd(), token as u64, true, want)
                    .expect("modify client interest");
                conn.want_write = want;
            }
        }
    }
    let wall = started.expect("phase never started").elapsed();
    for conn in &conns {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
    latencies.sort_unstable();
    Phase {
        name,
        connections,
        requests: connections * requests_per_conn,
        wall,
        latencies,
    }
}

fn cheap_engine() -> ServiceEngine {
    let e = ServiceEngine::with_cache(
        EngineConfig::with_threads(2),
        Some(Arc::new(CanonicalDecisionCache::new(1024))),
    );
    e.define_schema("s", CHEAP_SCHEMA).unwrap();
    e.define_query("s", "Q", CHEAP_QUERY).unwrap();
    e
}

/// Cache *disabled*: every uncoalesced request pays the full branch walk,
/// which is exactly what singleflight is supposed to collapse.
fn hot_engine(coalesce: bool) -> ServiceEngine {
    let e =
        ServiceEngine::with_cache(EngineConfig::with_threads(8), None).with_coalescing(coalesce);
    e.define_schema("s", HOT_SCHEMA).unwrap();
    e.define_query("s", "P", HOT_LEFT).unwrap();
    e.define_query("s", "Q", HOT_RIGHT).unwrap();
    e
}

#[cfg(target_os = "linux")]
fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_load.json".into());
    let p = Preset::from_env();

    eprintln!(
        "bench_load: {} connections x {} requests (pipeline depth {}), \
         hot-key {} x {}",
        p.connections,
        p.requests_per_conn,
        p.pipeline_depth,
        p.hot_connections,
        p.hot_requests_per_conn
    );

    let reactor = {
        let server = Loopback::start(cheap_engine()).expect("start reactor");
        run_phase(
            "reactor_cheap",
            server.addr(),
            p.connections,
            p.requests_per_conn,
            p.pipeline_depth,
            CHEAP_REQUEST,
        )
    };
    eprintln!("  reactor: {:.0} req/s", reactor.rps());
    let coalesced = {
        let server = Loopback::start(hot_engine(true)).expect("start reactor");
        run_phase(
            "coalesced_hot_key",
            server.addr(),
            p.hot_connections,
            p.hot_requests_per_conn,
            1,
            HOT_REQUEST,
        )
    };
    eprintln!("  coalesced hot key: {:.0} req/s", coalesced.rps());
    let uncoalesced = {
        let server = Loopback::start(hot_engine(false)).expect("start reactor");
        run_phase(
            "uncoalesced_hot_key",
            server.addr(),
            p.hot_connections,
            p.hot_requests_per_conn,
            1,
            HOT_REQUEST,
        )
    };
    eprintln!("  uncoalesced hot key: {:.0} req/s", uncoalesced.rps());

    let coalesce_ratio = coalesced.rps() / uncoalesced.rps();
    assert!(
        coalesce_ratio >= 5.0,
        "singleflight floor: coalesced hot-key throughput must be >= 5x \
         uncoalesced (coalesced {:.0} req/s, uncoalesced {:.0} req/s, ratio {:.1})",
        coalesced.rps(),
        uncoalesced.rps(),
        coalesce_ratio,
    );
    let phases = [&reactor, &coalesced, &uncoalesced];
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"experiment\": \"B11\",\n");
    json.push_str("  \"workload\": \"serving_reactor_concurrency_load\",\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cores\": {} }},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str(&format!(
        "  \"config\": {{ \"connections\": {}, \"requests_per_conn\": {}, \
         \"pipeline_depth\": {}, \"hot_connections\": {}, \"hot_requests_per_conn\": {} }},\n",
        p.connections,
        p.requests_per_conn,
        p.pipeline_depth,
        p.hot_connections,
        p.hot_requests_per_conn
    ));
    json.push_str("  \"entries\": [\n");
    for (i, ph) in phases.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"connections\": {}, \
             \"requests\": {}, \"wall_ms\": {:.1}, \"rps\": {:.0}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1} }}{}\n",
            ph.name,
            ph.connections,
            ph.requests,
            ph.wall.as_secs_f64() * 1e3,
            ph.rps(),
            ph.percentile_us(0.50),
            ph.percentile_us(0.99),
            ph.percentile_us(0.999),
            if i + 1 == phases.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"ratios\": {{ \"coalesced_vs_uncoalesced\": {coalesce_ratio:.2}, \
         \"coalesce_floor\": 5.0 }}\n"
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
    println!("bench_load: coalescing {coalesce_ratio:.1}x uncoalesced");
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("bench_load: the serving reactor needs Linux epoll");
    std::process::exit(1);
}
