//! TCP integration tests for the event-driven serving reactor.
//!
//! These drive the real socket paths — [`oocq_service::reactor::run`] and
//! the legacy thread-per-connection [`oocq_service::accept_loop`]
//! (`OOCQ_REACTOR=0`) — with hundreds of concurrent pipelined clients and
//! pin the determinism contract at the transport level: every connection's
//! transcript must be byte-identical to the in-process [`serve`] loop on
//! the same input, across serving modes and worker-pool sizes.

use oocq_core::EngineConfig;
use oocq_service::{accept_loop, escape, CanonicalDecisionCache, ServiceEngine};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine(threads: usize) -> ServiceEngine {
    ServiceEngine::with_cache(
        EngineConfig::with_threads(threads),
        Some(Arc::new(CanonicalDecisionCache::new(4096))),
    )
}

/// A serving-mode-agnostic server handle: stops and joins on drop.
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start(engine: ServiceEngine, reactor: bool) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            if reactor {
                oocq_service::reactor::run(&listener, &engine, &stop2)
            } else {
                accept_loop(&listener, &engine, &stop2)
            }
        });
        Server {
            addr,
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().unwrap().unwrap();
        }
    }
}

/// Pipeline a whole session over one connection and collect the reply.
fn exchange(addr: SocketAddr, input: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(input.as_bytes()).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// The five corpus programs as `run` sessions, plus their expected
/// transcripts computed through the in-process [`serve`] reference.
fn sessions() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let reference = engine(1);
    let mut out = Vec::new();
    for name in [
        "inequalities",
        "n1_partition",
        "paths",
        "university",
        "vehicle_rental",
    ] {
        let program = std::fs::read_to_string(dir.join(format!("{name}.oocq")))
            .unwrap_or_else(|e| panic!("missing corpus program {name}: {e}"));
        let input = format!("stats off\nrun {}\nquit\n", escape(&program));
        let mut expected = Vec::new();
        oocq_service::serve(input.as_bytes(), &mut expected, &reference).unwrap();
        out.push((input, String::from_utf8(expected).unwrap()));
    }
    out
}

/// Fan `n` concurrent clients (cycling through the sessions) at `addr`
/// and return each connection's transcript alongside its expectation.
fn storm(addr: SocketAddr, sessions: &[(String, String)], n: usize) -> Vec<(String, String)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (input, expected) = &sessions[i % sessions.len()];
                scope.spawn(move || (exchange(addr, input), expected.clone()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Tentpole pin: hundreds of concurrent pipelined connections through the
/// reactor, every transcript byte-identical to the in-process reference
/// (which also checks `[seq]` ordering — the reference's seqs are dense).
#[test]
fn reactor_serves_hundreds_of_concurrent_pipelined_clients_byte_identically() {
    let sessions = sessions();
    let server = Server::start(engine(8), true);
    for (i, (got, expected)) in storm(server.addr, &sessions, 240).into_iter().enumerate() {
        assert_eq!(got, expected, "transcript drift on connection {i}");
    }
}

/// The reactor and the legacy thread-per-connection path (`OOCQ_REACTOR=0`)
/// must be observationally indistinguishable, byte for byte.
#[test]
fn reactor_and_thread_per_connection_transcripts_are_byte_identical() {
    let sessions = sessions();
    let reactor = Server::start(engine(4), true);
    let legacy = Server::start(engine(4), false);
    let via_reactor = storm(reactor.addr, &sessions, 40);
    let via_legacy = storm(legacy.addr, &sessions, 40);
    for (i, ((r, expected), (l, _))) in via_reactor.iter().zip(&via_legacy).enumerate() {
        assert_eq!(r, l, "serving modes disagree on connection {i}");
        assert_eq!(r, expected, "both modes drifted from serve() on {i}");
    }
}

/// Worker-pool size must not leak into reactor output bytes.
#[test]
fn reactor_transcripts_are_identical_across_thread_counts() {
    let sessions = sessions();
    let serial = Server::start(engine(1), true);
    let pooled = Server::start(engine(8), true);
    let one = storm(serial.addr, &sessions, 10);
    let eight = storm(pooled.addr, &sessions, 10);
    for (i, ((a, _), (b, _))) in one.iter().zip(&eight).enumerate() {
        assert_eq!(a, b, "OOCQ_THREADS changed reactor bytes on connection {i}");
    }
}

/// Every accepted connection runs with `TCP_NODELAY`. A client that
/// pipelines a `ping` and a decision in one write gets two reply segments;
/// with Nagle on, the second waits for the client's delayed ACK of the
/// first (~40 ms on Linux), so 50 rounds would take at least two seconds.
/// The client deliberately leaves `TCP_QUICKACK` alone, and the warm-up
/// rounds let the kernel leave its initial quick-ACK mode first.
#[test]
fn pipelined_replies_are_not_held_back_by_nagle() {
    const ROUNDS: u32 = 50;
    for reactor in [true, false] {
        let e = engine(2);
        e.define_schema("s", "class C {}").unwrap();
        e.define_query("s", "Q", "{ x | x in C }").unwrap();
        let server = Server::start(e, reactor);
        let mut stream = TcpStream::connect(server.addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut round = || {
            stream.write_all(b"ping\ncontains s Q Q\n").unwrap();
            for _ in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains("] ok "), "unexpected reply {line:?}");
            }
        };
        for _ in 0..5 {
            round();
        }
        let start = Instant::now();
        for _ in 0..ROUNDS {
            round();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(20 * u64::from(ROUNDS)),
            "{ROUNDS} pipelined rounds took {elapsed:?} (reactor = {reactor}): \
             replies are waiting on delayed ACKs"
        );
    }
}

/// Names resolve when a decision request is read: an unbound name answers
/// the same error text at the same `[seq]` on the stdin `serve` loop, the
/// reactor and the thread-per-connection loop, whether it names no query
/// yet, one bound only later, or one in a session that was redefined in
/// between.
#[test]
fn unknown_names_answer_the_same_text_at_the_same_seq_on_every_path() {
    let input = "stats off\n\
                 schema s class C {}\n\
                 query s Q { x | x in C }\n\
                 contains s Q Late\n\
                 satisfiable s Nope\n\
                 limit=5 explain s Nope Q\n\
                 contains ghost Q Q\n\
                 query s Late { x | exists y: x in C & y in C & x != y }\n\
                 contains s Late Q\n\
                 schema s class C {}\n\
                 equiv s Q Q\n\
                 minimize s Late\n\
                 ping\n\
                 quit\n";
    let expected = "[0] ok stats off\n\
                    [1] ok session s: 1 classes\n\
                    [2] ok query Q defined in session s\n\
                    [3] err unknown query `Late` in session `s`\n\
                    [4] err unknown query `Nope` in session `s`\n\
                    [5] err unknown query `Nope` in session `s`\n\
                    [6] err unknown session `ghost` (define it with `schema ghost <text>`)\n\
                    [7] ok query Late defined in session s\n\
                    [8] ok holds\n\
                    [9] ok session s: 1 classes\n\
                    [10] err unknown query `Q` in session `s`\n\
                    [11] err unknown query `Late` in session `s`\n\
                    [12] ok pong\n\
                    [13] ok bye\n";
    let mut stdin = Vec::new();
    oocq_service::serve(input.as_bytes(), &mut stdin, &engine(2)).unwrap();
    assert_eq!(String::from_utf8(stdin).unwrap(), expected, "stdin serve");
    for reactor in [true, false] {
        let server = Server::start(engine(2), reactor);
        assert_eq!(
            exchange(server.addr, input),
            expected,
            "reactor = {reactor}"
        );
    }
}
