//! TCP integration tests for the event-driven serving reactor, the
//! daemon's one TCP server (Linux only).
//!
//! These drive the real socket path — [`oocq_service::reactor::run`] —
//! with hundreds of concurrent pipelined clients and pin the determinism
//! contract at the transport level: every connection's transcript must be
//! byte-identical to the in-process [`serve`] loop on the same input,
//! across worker-pool sizes. Hostile peers (a writer that never finishes a
//! line, a reader that never reads) must not stall anyone else.

#![cfg(target_os = "linux")]

use oocq_core::EngineConfig;
use oocq_service::reactor::Loopback;
use oocq_service::{escape, CanonicalDecisionCache, ServiceEngine};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine(threads: usize) -> ServiceEngine {
    ServiceEngine::with_cache(
        EngineConfig::with_threads(threads),
        Some(Arc::new(CanonicalDecisionCache::new(4096))),
    )
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
    let server = Loopback::start(engine(8)).unwrap();
    for (i, (got, expected)) in storm(server.addr(), &sessions, 240).into_iter().enumerate() {
        assert_eq!(got, expected, "transcript drift on connection {i}");
    }
}

/// Worker-pool size must not leak into reactor output bytes.
#[test]
fn reactor_transcripts_are_identical_across_thread_counts() {
    let sessions = sessions();
    let serial = Loopback::start(engine(1)).unwrap();
    let pooled = Loopback::start(engine(8)).unwrap();
    let one = storm(serial.addr(), &sessions, 10);
    let eight = storm(pooled.addr(), &sessions, 10);
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
    let e = engine(2);
    e.define_schema("s", "class C {}").unwrap();
    e.define_query("s", "Q", "{ x | x in C }").unwrap();
    let server = Loopback::start(e).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
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
        "{ROUNDS} pipelined rounds took {elapsed:?}: replies are waiting on delayed ACKs"
    );
}

/// Names resolve when a decision request is read: an unbound name answers
/// the same error text at the same `[seq]` on the stdin `serve` loop and
/// the reactor, whether it names no query yet, one bound only later, or
/// one in a session that was redefined in between.
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
    let server = Loopback::start(engine(2)).unwrap();
    assert_eq!(exchange(server.addr(), input), expected, "reactor");
}

/// A connection with read and write guards, so a stalled server fails
/// the test instead of hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

/// Send one line on `stream` and read its one reply line.
fn ask(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => reply.push(byte[0]),
            Err(e) => panic!("no reply to {line:?}: {e}"),
        }
    }
    String::from_utf8(reply).unwrap()
}

/// A peer that trickles a line a few bytes at a time and never finishes
/// it holds no one up: between its fragments a second connection's `ping`
/// is answered, and the fragments still assemble into one request when
/// the newline finally comes.
#[test]
fn a_trickling_writer_does_not_stall_another_connection() {
    let server = Loopback::start(engine(2)).unwrap();
    let mut trickler = connect(server.addr());
    let mut other = connect(server.addr());
    assert_eq!(ask(&mut other, "stats off"), "[0] ok stats off");
    for (i, fragment) in ["st", "ats", " ", "o", "f"].iter().enumerate() {
        trickler.write_all(fragment.as_bytes()).unwrap();
        trickler.flush().unwrap();
        assert_eq!(ask(&mut other, "ping"), format!("[{}] ok pong", i + 1));
    }
    assert_eq!(ask(&mut trickler, "f"), "[0] ok stats off");
}

/// A peer that pipelines far more than the 1 MiB output cap and never
/// reads its replies is pushed back on (its writes stop being accepted)
/// while a second connection's `ping` keeps being answered; closing it
/// frees its connection slot for the next client.
#[test]
fn a_peer_that_never_reads_is_pushed_back_on_and_its_close_frees_its_slot() {
    const CAP: usize = 1 << 20;
    let server = Loopback::start(engine(2).with_max_conns(2)).unwrap();
    let mut hog = connect(server.addr());
    let mut other = connect(server.addr());
    assert_eq!(ask(&mut other, "stats off"), "[0] ok stats off");
    let mut seq = 1;
    // Each line is an unknown command whose error reply echoes it, so the
    // replies are as large as the requests.
    let mut line = "x".repeat(64 << 10);
    line.push('\n');
    hog.set_nonblocking(true).unwrap();
    let (mut written, mut blocked_rounds) = (0usize, 0);
    let mut at = 0;
    while blocked_rounds < 3 {
        assert!(
            written < 64 * CAP,
            "the server kept reading a peer that never reads ({written} bytes)"
        );
        match hog.write(&line.as_bytes()[at..]) {
            Ok(n) => {
                written += n;
                at = (at + n) % line.len();
                blocked_rounds = 0;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // The other connection is served whether the hog's
                // socket is full for a moment or for good.
                assert_eq!(ask(&mut other, "ping"), format!("[{seq}] ok pong"));
                seq += 1;
                if written > 2 * CAP {
                    blocked_rounds += 1;
                }
            }
            Err(e) => panic!("hog write failed: {e}"),
        }
    }
    // Both slots are taken: a third client is turned away.
    let mut third = connect(server.addr());
    assert!(
        ask(&mut third, "ping").contains("err busy"),
        "a third connection was admitted past the cap"
    );
    drop(hog);
    // Once the reactor sees the hog's close, its slot takes a new client.
    let mut attempts = 0;
    loop {
        let mut next = connect(server.addr());
        let reply = ask(&mut next, "ping");
        if reply.starts_with("[0] ok pong") {
            break;
        }
        assert!(reply.contains("err busy"), "unexpected reply {reply:?}");
        attempts += 1;
        assert!(attempts < 500, "the closed peer's slot was never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(ask(&mut other, "ping"), format!("[{seq}] ok pong"));
}
