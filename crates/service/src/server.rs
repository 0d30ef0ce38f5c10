//! The concurrent request loop of `oocq-serve`.
//!
//! One dispatcher thread (the caller of [`serve`]) reads request lines,
//! assigns each a sequence number in input order, executes definitional
//! commands (`schema`, `query`, `stats`, `ping`, `quit`) inline, and hands
//! decision requests — with the handles their names are bound to already
//! captured — to a pool of `OOCQ_THREADS` workers. Workers push finished
//! responses into a reorder buffer that writes them out strictly in
//! sequence order, so the response stream is deterministic no matter how
//! the pool interleaves.
//!
//! Fault isolation (see DESIGN.md §8):
//!
//! * the job queue is **bounded** ([`ServiceEngine::queue_bound`]): the
//!   dispatcher blocks instead of buffering an unbounded backlog, which
//!   propagates backpressure to the client through the unread input stream;
//! * each job runs under **`catch_unwind`**: a panicking request becomes
//!   its own `err internal …` response, so its sequence number is always
//!   emitted and the reorder buffer never stalls;
//! * a **mid-stream read error** is answered with a final `err` line before
//!   the connection closes, instead of a silent teardown.

use crate::engine::{Capture, ServiceEngine};
use crate::flight::FlightStats;
use crate::protocol::{parse_request, render_response, Request, RequestStats};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

struct Job {
    seq: u64,
    req: Request,
    capture: Option<Capture>,
    stats_on: bool,
}

struct QueueState<T> {
    jobs: VecDeque<T>,
    closed: bool,
    /// Workers waiting on `cond`.
    idle: usize,
    /// Pushers waiting on `room`.
    blocked: usize,
}

/// The dispatcher → worker job queue, bounded so a slow pool pushes back on
/// the dispatcher (and through it, on the client's unread input) instead of
/// buffering an unbounded backlog. Generic over the job type: [`serve`]
/// queues per-connection jobs, the reactor queues cross-connection ones.
///
/// A condition variable is signalled only when someone waits on it (the
/// state counts waiters under the lock), because a futex wake is a system
/// call even when nobody sleeps. Waiters re-check the queue under the
/// lock before they wait, so a skipped signal can never strand a job or a
/// pusher.
pub(crate) struct Queue<T> {
    state: Mutex<QueueState<T>>,
    bound: usize,
    /// Signals waiting workers that a job arrived (or the queue closed).
    cond: Condvar,
    /// Signals the blocked dispatcher that a slot freed up.
    room: Condvar,
}

impl<T> Queue<T> {
    pub(crate) fn new(bound: usize) -> Queue<T> {
        Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                idle: 0,
                blocked: 0,
            }),
            bound: bound.max(1),
            cond: Condvar::new(),
            room: Condvar::new(),
        }
    }

    /// Blocks while the queue is full (workers always drain it, so this
    /// cannot deadlock; `close` also wakes any blocked pusher).
    pub(crate) fn push(&self, job: T) {
        let mut st = self.state.lock().unwrap();
        while st.jobs.len() >= self.bound && !st.closed {
            st.blocked += 1;
            st = self.room.wait(st).unwrap();
            st.blocked -= 1;
        }
        st.jobs.push_back(job);
        if st.idle > 0 {
            self.cond.notify_one();
        }
    }

    /// Nonblocking push for the reactor (which must never sleep on a lock):
    /// a full queue hands the job back so the caller can park it.
    #[cfg(target_os = "linux")]
    pub(crate) fn try_push(&self, job: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap();
        if st.jobs.len() >= self.bound && !st.closed {
            return Err(job);
        }
        st.jobs.push_back(job);
        if st.idle > 0 {
            self.cond.notify_one();
        }
        Ok(())
    }

    /// Close the queue; workers drain remaining jobs and exit.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cond.notify_all();
        self.room.notify_all();
    }

    pub(crate) fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                if st.blocked > 0 {
                    self.room.notify_one();
                }
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st.idle += 1;
            st = self.cond.wait(st).unwrap();
            st.idle -= 1;
        }
    }
}

struct EmitState<W: Write> {
    next: u64,
    pending: HashMap<u64, String>,
    out: W,
    error: Option<std::io::Error>,
}

/// The reorder buffer: responses arrive in completion order, leave in
/// sequence order.
struct Emitter<W: Write> {
    state: Mutex<EmitState<W>>,
}

impl<W: Write> Emitter<W> {
    fn new(out: W) -> Emitter<W> {
        Emitter {
            state: Mutex::new(EmitState {
                next: 0,
                pending: HashMap::new(),
                out,
                error: None,
            }),
        }
    }

    fn emit(&self, seq: u64, line: String) {
        let mut st = self.state.lock().unwrap();
        if st.error.is_some() {
            return;
        }
        st.pending.insert(seq, line);
        let mut wrote = false;
        loop {
            let next = st.next;
            let Some(line) = st.pending.remove(&next) else {
                break;
            };
            if let Err(e) = writeln!(st.out, "{line}") {
                st.error = Some(e);
                return;
            }
            st.next += 1;
            wrote = true;
        }
        if wrote {
            if let Err(e) = st.out.flush() {
                st.error = Some(e);
            }
        }
    }

    /// Flush the buffer at end of connection. Every seq is emitted even
    /// when a job fails (see the `catch_unwind` in [`serve`]), so `pending`
    /// is normally empty here — but if a future regression strands
    /// responses behind a gap, write them out in sequence order rather
    /// than silently dropping them.
    fn finish(self) -> std::io::Result<()> {
        let mut st = self.state.into_inner().unwrap();
        if let Some(e) = st.error.take() {
            return Err(e);
        }
        if !st.pending.is_empty() {
            eprintln!(
                "oocq-serve: {} response(s) stranded in reorder buffer",
                st.pending.len()
            );
            let mut stranded: Vec<(u64, String)> = st.pending.drain().collect();
            stranded.sort_unstable_by_key(|&(seq, _)| seq);
            for (_, line) in stranded {
                writeln!(st.out, "{line}")?;
            }
        }
        st.out.flush()
    }
}

/// Run the request loop over arbitrary streams until EOF or `quit`,
/// blocking until every response has been written.
pub fn serve<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    engine: &ServiceEngine,
) -> std::io::Result<()> {
    let workers = engine.pool_threads().max(1);
    let queue = Queue::new(engine.queue_bound());
    let emitter = Emitter::new(output);
    // Decision requests dispatched but not yet answered, so `stats show`
    // can report this connection's live backlog like the reactor does.
    let inflight = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(job) = queue.pop() {
                    // A panic inside one request must not take the worker
                    // (and with it, every queued seq) down: turn it into
                    // this request's own error response. The engine holds
                    // no locks across `execute`, so unwind safety here is
                    // only about the panic payload, which we discard.
                    let Job {
                        seq,
                        req,
                        capture,
                        stats_on,
                    } = job;
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        engine.execute(&req, capture.as_ref())
                    }));
                    let line = match outcome {
                        Ok((result, stats)) => {
                            let st = if stats_on { Some(&stats) } else { None };
                            render_response(seq, &result, st)
                        }
                        Err(_) => render_response(
                            seq,
                            &Err("internal: worker panicked executing this request".to_owned()),
                            None,
                        ),
                    };
                    emitter.emit(seq, line);
                    inflight.fetch_sub(1, SeqCst);
                }
            });
        }

        let mut seq = 0u64;
        let mut stats_on = true;
        for line in input.lines() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    // Tell the client why the stream ends instead of
                    // closing silently mid-session.
                    let resp: Result<String, String> =
                        Err(format!("read error: {e}; closing connection"));
                    emitter.emit(seq, render_response(seq, &resp, None));
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let start = Instant::now();
            let mut quitting = false;
            // Decision requests go to the pool; everything else — including
            // parse errors — is answered inline so session state and the
            // stats toggle stay in input order.
            let inline: Result<String, String> = match parse_request(&line) {
                Err(e) => Err(e),
                Ok(req) if req.is_decision() => match engine.snapshot_for(&req) {
                    Ok(capture) => {
                        inflight.fetch_add(1, SeqCst);
                        queue.push(Job {
                            seq,
                            req,
                            capture,
                            stats_on,
                        });
                        seq += 1;
                        continue;
                    }
                    Err(e) => Err(e),
                },
                Ok(Request::Ping) => Ok("pong".to_owned()),
                Ok(Request::Stats(on)) => {
                    stats_on = on;
                    Ok(format!("stats {}", if on { "on" } else { "off" }))
                }
                Ok(Request::Quit) => {
                    quitting = true;
                    Ok("bye".to_owned())
                }
                Ok(Request::DefineSchema { session, text }) => {
                    engine.define_schema(&session, &text)
                }
                Ok(Request::DefineQuery {
                    session,
                    name,
                    text,
                }) => engine.define_query(&session, &name, &text),
                Ok(Request::DefineConstraint { session, text }) => {
                    engine.define_constraint(&session, &text)
                }
                // The blocking path has no singleflight table, so the
                // coalescing counters are legitimately zero — but the
                // decision backlog is real and reported live, like the
                // reactor's per-connection count.
                Ok(Request::StatsShow) => {
                    Ok(engine.stats_report(&FlightStats::default(), inflight.load(SeqCst)))
                }
                Ok(other) => Err(format!("internal: unhandled request `{other:?}`")),
            };
            let stats = RequestStats {
                cached: 0,
                decided: 0,
                wall_us: start.elapsed().as_micros() as u64,
                threads: workers,
            };
            let st = if stats_on { Some(&stats) } else { None };
            emitter.emit(seq, render_response(seq, &inline, st));
            seq += 1;
            if quitting {
                break;
            }
        }
        queue.close();
    });
    emitter.finish()
}

/// Entry point of the `oocq-serve` binary: serve stdin/stdout, or — when
/// `OOCQ_LISTEN=<addr:port>` is set — accept TCP connections through the
/// event-driven reactor over one shared engine (and shared cache). TCP
/// serving needs Linux epoll; elsewhere `OOCQ_LISTEN` is refused with an
/// `Unsupported` error and stdin mode still works.
pub fn daemon_main() -> std::io::Result<()> {
    let engine = Arc::new(ServiceEngine::from_env());
    match std::env::var("OOCQ_LISTEN") {
        Ok(addr) if !addr.trim().is_empty() => listen(addr.trim(), &engine),
        _ => serve(std::io::stdin().lock(), std::io::stdout(), &engine),
    }
}

#[cfg(target_os = "linux")]
fn listen(addr: &str, engine: &ServiceEngine) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    eprintln!(
        "oocq-serve listening on {} ({})",
        listener.local_addr()?,
        engine.knobs()
    );
    let stop = std::sync::atomic::AtomicBool::new(false);
    crate::reactor::run(&listener, engine, &stop)
}

#[cfg(not(target_os = "linux"))]
fn listen(_addr: &str, _engine: &ServiceEngine) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "TCP serving (OOCQ_LISTEN) needs Linux epoll; unset OOCQ_LISTEN to serve stdin/stdout",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CanonicalDecisionCache;
    use oocq_core::EngineConfig;

    fn run(engine: &ServiceEngine, input: &str) -> String {
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, engine).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn engine(threads: usize) -> ServiceEngine {
        ServiceEngine::with_cache(
            EngineConfig::with_threads(threads),
            Some(Arc::new(CanonicalDecisionCache::new(256))),
        )
    }

    const SESSION: &str = "stats off\n\
                           schema s class C {}\n\
                           query s Q { x | x in C }\n\
                           query s R { x | exists y: x in C & y in C & x != y }\n";

    #[test]
    fn responses_come_back_in_request_order() {
        for threads in [1, 8] {
            let e = engine(threads);
            let mut input = SESSION.to_owned();
            for _ in 0..12 {
                input.push_str("contains s R Q\ncontains s Q R\nminimize s R\n");
            }
            input.push_str("quit\n");
            let out = run(&e, &input);
            let seqs: Vec<u64> = out
                .lines()
                .map(|l| {
                    let end = l.find(']').unwrap();
                    l[1..end].parse().unwrap()
                })
                .collect();
            let expected: Vec<u64> = (0..seqs.len() as u64).collect();
            assert_eq!(seqs, expected, "{threads} threads: out of order");
            assert!(out.ends_with(&format!("[{}] ok bye\n", seqs.len() - 1)));
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts_with_stats_off() {
        let mut input = SESSION.to_owned();
        input.push_str(
            "contains s Q R\nequiv s Q Q\nsatisfiable s R\nexpand s R\nminimize s R\n\
             explain s Q R\nquit\n",
        );
        let serial = run(&engine(1), &input);
        let pooled = run(&engine(8), &input);
        assert_eq!(serial, pooled);
        assert!(serial.contains("ok holds"));
    }

    #[test]
    fn parse_and_session_errors_are_responses_not_crashes() {
        let e = engine(2);
        let out = run(&e, "stats off\nfrobnicate\ncontains ghost A B\nping\n");
        assert!(out.contains("[1] err unknown command `frobnicate`"));
        assert!(out.contains("[2] err unknown session `ghost`"));
        assert!(out.contains("[3] ok pong"));
    }

    #[test]
    fn stats_suffix_present_by_default_and_toggleable() {
        let e = engine(1);
        let out = run(
            &e,
            "schema s class C {}\nquery s Q { x | x in C }\ncontains s Q Q\n\
             stats off\ncontains s Q Q\nquit\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains(" # cached=0 decided=0"), "{:?}", lines[0]);
        assert!(lines[2].contains("ok holds # cached="), "{:?}", lines[2]);
        assert!(lines[2].contains("threads=1"));
        assert!(!lines[4].contains('#'), "{:?}", lines[4]);
        assert_eq!(lines[4], "[4] ok holds");
    }

    #[test]
    fn definitions_apply_to_later_requests_even_with_a_busy_pool() {
        let e = engine(8);
        let out = run(
            &e,
            "stats off\nschema s class C {}\nquery s Q { x | x in C }\n\
             contains s Q Q\nschema s class D {}\nquery s P { x | x in D }\n\
             minimize s P\nquit\n",
        );
        assert!(out.contains("ok holds"));
        assert!(out.contains("ok { x | x in D }"));
    }

    /// `stats show` on the blocking path reports the connection's live
    /// decision backlog (the coalescing counters are legitimately zero:
    /// there is no singleflight table without the reactor). The engine's
    /// test-only `__slow__` latency hook holds the dispatched decision in
    /// flight for a full second, so the inline `stats show` answer
    /// deterministically sees backlog=1.
    #[test]
    fn stats_show_reports_the_live_decision_backlog() {
        let e = engine(2);
        let out = run(
            &e,
            "stats off\nschema s class T1 {}\nquery s __slow__ { x | x in T1 }\n\
             contains s __slow__ __slow__\nstats show\nquit\n",
        );
        let show = out
            .lines()
            .find(|l| l.starts_with("[4]"))
            .unwrap_or_else(|| panic!("no stats line in {out}"));
        assert!(show.contains("conn: backlog=1"), "{show}");
        assert!(show.contains("coalesce: leaders=0"), "{show}");
        assert!(out.contains("[3] ok holds"), "{out}");
    }

    #[test]
    fn eof_without_quit_drains_cleanly() {
        let e = engine(4);
        let out = run(
            &e,
            "stats off\nschema s class C {}\nquery s Q { x | x in C }\ncontains s Q Q\n",
        );
        assert!(out.ends_with("[3] ok holds\n"));
    }

    /// A program defining the shared `Big`/`R` deadline fixture, then
    /// `tail`.
    fn explosion_program(tail: &str) -> String {
        use crate::explosion;
        format!(
            "stats off\n\
             schema s {}\n\
             query s Big {}\n\
             query s R {}\n\
             {tail}",
            explosion::SCHEMA,
            explosion::big(),
            explosion::R
        )
    }

    #[test]
    fn a_panicking_request_is_isolated_to_its_own_response() {
        let e = engine(2);
        let out = run(
            &e,
            "stats off\nschema s class C {}\nquery s Q { x | x in C }\n\
             contains s __panic__ Q\ncontains s Q Q\nping\nquit\n",
        );
        assert!(
            out.contains("[3] err internal: worker panicked executing this request"),
            "{out}"
        );
        assert!(out.contains("[4] ok holds"), "{out}");
        assert!(out.contains("[5] ok pong"), "{out}");
        assert!(out.ends_with("[6] ok bye\n"), "{out}");
    }

    #[test]
    fn a_deadline_timeout_leaves_the_connection_usable() {
        let e = engine(2).with_deadline(Some(std::time::Duration::from_millis(40)));
        let out = run(
            &e,
            &explosion_program("contains s Big R\nping\ncontains s R R\nquit\n"),
        );
        assert!(out.contains("[4] err timeout"), "{out}");
        assert!(out.contains("[5] ok pong"), "{out}");
        assert!(out.contains("[6] ok holds"), "{out}");
        assert!(out.ends_with("[7] ok bye\n"), "{out}");
    }

    #[test]
    fn a_limit_option_timeout_leaves_the_connection_usable() {
        let e = engine(2);
        let out = run(
            &e,
            &explosion_program("limit=50 contains s Big R\ncontains s R R\nquit\n"),
        );
        assert!(out.contains("[4] err timeout"), "{out}");
        assert!(out.contains("[5] ok holds"), "{out}");
        assert!(out.ends_with("[6] ok bye\n"), "{out}");
    }

    #[test]
    fn a_tiny_queue_bound_still_answers_a_large_piped_program_in_order() {
        let e = engine(2).with_queue_bound(Some(2));
        let mut input = SESSION.to_owned();
        for _ in 0..50 {
            input.push_str("contains s Q R\ncontains s R Q\n");
        }
        input.push_str("quit\n");
        let out = run(&e, &input);
        let seqs: Vec<u64> = out
            .lines()
            .map(|l| l[1..l.find(']').unwrap()].parse().unwrap())
            .collect();
        let expected: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, expected);
        assert!(
            out.ends_with(&format!("[{}] ok bye\n", seqs.len() - 1)),
            "{out}"
        );
    }

    #[test]
    fn a_mid_stream_read_error_gets_a_final_err_response() {
        /// Yields its buffered bytes, then fails instead of reporting EOF.
        struct FailingReader(std::io::Cursor<Vec<u8>>);
        impl std::io::Read for FailingReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.read(buf)? {
                    0 => Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "peer vanished",
                    )),
                    n => Ok(n),
                }
            }
        }
        let reader = std::io::BufReader::new(FailingReader(std::io::Cursor::new(
            b"stats off\nping\n".to_vec(),
        )));
        let mut out = Vec::new();
        serve(reader, &mut out, &engine(1)).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("[1] ok pong"), "{out}");
        assert!(
            out.ends_with("[2] err read error: peer vanished; closing connection\n"),
            "{out}"
        );
    }

    #[test]
    fn finish_flushes_stranded_responses_instead_of_dropping_them() {
        let mut out = Vec::new();
        let emitter = Emitter::new(&mut out);
        // Seq 0 never arrives, so seq 1 is stuck in the reorder buffer.
        emitter.emit(1, "[1] ok late".to_owned());
        emitter.finish().unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "[1] ok late\n");
    }
}
