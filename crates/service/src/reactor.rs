//! The event-driven TCP serving reactor.
//!
//! [`run`] is the daemon's only TCP server (Linux only: it sleeps on
//! epoll). It is a single event loop: every socket is nonblocking and
//! registered with a level-triggered [`crate::poll::Poller`]; each
//! connection is a small line-buffer state machine; and *all* connections
//! share one `OOCQ_THREADS` worker pool behind one bounded job queue, so
//! ten thousand mostly idle connections cost no thread each.
//!
//! ## Determinism
//!
//! The per-connection protocol semantics are byte-identical to the
//! blocking [`crate::serve`] loop (corpus replays pin this): sequence
//! numbers are assigned in input order as lines are parsed, inline
//! commands mutate session state at parse time, decision requests capture
//! the handles their names are bound to at parse time, and a per-connection
//! reorder buffer emits responses strictly in sequence order no matter how
//! the shared pool interleaves connections. A response that is next in
//! its connection's sequence when it is ready (every inline answer while
//! no decision is outstanding) is rendered straight into the output
//! buffer; only an early one waits in the reorder buffer as a line.
//!
//! ## Backpressure and fault isolation
//!
//! The reactor thread never blocks on anything but the poller: jobs are
//! handed to the pool with a nonblocking `try_push`, and a full queue
//! parks the job on its connection and masks the connection's read
//! interest until completions drain (the client's unread input is the
//! buffer, exactly like the blocking path). Per-connection output is
//! likewise bounded: a peer that stops reading has its request parsing
//! paused once its write buffer fills. A single line longer than the
//! input cap can never complete, so it is answered `err line too long`
//! and its remaining bytes are discarded through the next newline (or
//! EOF) instead of wedging the connection. Worker panics are confined to
//! their own request (`err internal …`), accept errors are classified
//! transient/fatal with exponential backoff that resets on success, and
//! connections beyond `OOCQ_MAX_CONNS` are answered `err busy` and
//! closed instead of accumulating.
//!
//! ## Singleflight coalescing
//!
//! Workers route coalescable decisions (`contains`/`equiv`/`minimize`
//! without a `limit=` option) through a [`Singleflight`] table keyed by
//! the same canonical identity the decision cache uses. The first request
//! for a key computes; concurrent identical requests park as waiters —
//! occupying no worker thread — and the verdict fans out to all of them
//! on completion. Budget semantics stay per-waiter: requests with an
//! explicit `limit=` bypass coalescing entirely (work accounting is
//! request-local), and a parked waiter whose own wall-clock deadline
//! expires is answered `err timeout` by the reactor without cancelling
//! the leader.

use crate::engine::{split_limit, Capture, ServiceEngine};
use crate::flight::{FlightKey, JoinOutcome, Singleflight};
use crate::poll::{waker, PollEvent, Poller, WakeReceiver, Waker};
use crate::protocol::{parse_request, render_into, render_response, Request, RequestStats};
use crate::server::Queue;
use oocq_core::Budget;
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token of the listening socket.
const LISTENER: u64 = 0;
/// Token of the worker→reactor wakeup channel.
const WAKER: u64 = 1;
/// First token handed to an accepted connection. Tokens are never reused,
/// so a late completion for a closed connection cannot reach a new one.
const FIRST_CONN: u64 = 2;

/// Input buffered per connection before read interest is masked (the rest
/// stays in the kernel socket buffer — level-triggered polling picks it
/// back up once the backlog drains).
const IN_CAP: usize = 1 << 20;
/// Output buffered per connection before request parsing pauses (a peer
/// that stops reading must not grow our heap).
const OUT_CAP: usize = 1 << 20;
/// Idle poll tick: the upper bound on how stale the `stop` flag, a
/// parked-waiter deadline, or a listener backoff expiry can get.
const IDLE_TICK: Duration = Duration::from_millis(200);
/// Initial accept backoff after a transient accept error.
const BASE_BACKOFF: Duration = Duration::from_millis(10);

/// Is an `accept` error transient? Resource exhaustion
/// (`EMFILE`/`ENFILE`/`ENOMEM`/`ENOBUFS`), interruption, and peers that
/// reset or aborted during the handshake (`ECONNABORTED`/`ECONNRESET`)
/// are: log, back off, keep serving the connections already accepted.
/// Everything else — notably `EBADF`/`EINVAL`/`ENOTSOCK` — means the
/// listening socket itself is gone, so retrying can never succeed and the
/// reactor surfaces the error.
fn accept_error_is_transient(e: &std::io::Error) -> bool {
    match e.kind() {
        ErrorKind::Interrupted
        | ErrorKind::WouldBlock
        | ErrorKind::ConnectionAborted
        | ErrorKind::ConnectionReset
        | ErrorKind::OutOfMemory => true,
        // ENOMEM, ENFILE, EMFILE, ENOBUFS: the fd/memory pressure cases
        // ErrorKind does not (or did not historically) map.
        _ => matches!(e.raw_os_error(), Some(12 | 23 | 24 | 105)),
    }
}

/// One decision request in flight from a connection to the worker pool:
/// the parsed request itself (moved, not copied) and what it captured.
struct ReactorJob {
    conn: u64,
    seq: u64,
    req: Request,
    capture: Option<Capture>,
    stats_on: bool,
}

/// A request parked behind a singleflight leader.
struct Waiter {
    conn: u64,
    seq: u64,
    stats_on: bool,
    start: Instant,
}

/// A completion (or parking notice) posted by a worker to the reactor.
enum Note {
    /// The response line for `(conn, seq)` is ready.
    Done { conn: u64, seq: u64, line: String },
    /// `(conn, seq)` joined an in-flight computation as a waiter; the
    /// reactor must answer `err timeout` itself if `deadline` passes
    /// before the leader's fan-out arrives.
    Parked {
        conn: u64,
        seq: u64,
        key: FlightKey,
        deadline: Instant,
    },
}

/// Why the board's lock can fail: a thread panicked while holding it,
/// which only a bug in a push or a swap could do.
const BOARD_POISONED: &str = "a thread panicked while holding the note board";

/// The worker→reactor mailbox: posting wakes the blocked poller.
struct Board {
    notes: Mutex<Vec<Note>>,
    waker: Waker,
}

impl Board {
    /// Post a note. Only the note that makes the list non-empty writes a
    /// wake byte: a list that already holds notes has a wake pending,
    /// and the reactor drains the wake channel before it takes the notes
    /// in every pass, so the notes behind that wake are taken with it.
    fn post(&self, note: Note) {
        let first = {
            let mut notes = self.notes.lock().expect(BOARD_POISONED);
            notes.push(note);
            notes.len() == 1
        };
        if first {
            self.waker.wake();
        }
    }

    /// Move every posted note into `out` (which must be empty), leaving
    /// `out`'s buffer behind for the next posts.
    fn drain_into(&self, out: &mut Vec<Note>) {
        std::mem::swap(&mut *self.notes.lock().expect(BOARD_POISONED), out);
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Unconsumed input bytes (complete lines are parsed out eagerly).
    inbuf: Vec<u8>,
    /// Response bytes not yet written, starting at `out_pos`.
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Sequence number the next parsed line will get.
    next_seq: u64,
    /// Sequence number the reorder buffer emits next.
    next_emit: u64,
    /// Out-of-order completed responses awaiting `next_emit`.
    pending: HashMap<u64, String>,
    /// Decision requests dispatched (or stalled) but not yet answered.
    inflight: usize,
    stats_on: bool,
    /// No more input will be read (EOF, `quit`, or a read error).
    read_done: bool,
    /// A mid-stream read error to report, after buffered lines, as the
    /// connection's final response.
    read_err: Option<String>,
    /// `quit` seen: discard any remaining buffered input.
    quit: bool,
    /// An oversized line was answered `err line too long`; its remaining
    /// bytes are being discarded up to the next newline (or EOF).
    discarding: bool,
    /// A job the full worker queue handed back; retried when completions
    /// drain. While set, the connection parses no further input.
    stalled: Option<ReactorJob>,
    /// Interest set currently registered with the poller.
    want_read: bool,
    want_write: bool,
    /// The peer is unreachable (write error): discard output, drain
    /// in-flight work, close.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_emit: 0,
            pending: HashMap::new(),
            inflight: 0,
            stats_on: true,
            read_done: false,
            read_err: None,
            quit: false,
            discarding: false,
            stalled: None,
            want_read: true,
            want_write: false,
            dead: false,
        }
    }

    /// Hand a completed response line to the reorder buffer; everything
    /// ready in sequence order moves to the output buffer.
    fn emit(&mut self, seq: u64, line: String) {
        self.pending.insert(seq, line);
        self.release_ready();
    }

    /// Answer `seq`: rendered straight into the output buffer when it is
    /// next in sequence, otherwise parked in the reorder buffer as a line.
    fn answer(&mut self, seq: u64, result: &Result<String, String>, stats: Option<&RequestStats>) {
        if seq != self.next_emit {
            self.emit(seq, render_response(seq, result, stats));
            return;
        }
        if !self.dead {
            render_into(&mut self.outbuf, seq, result, stats);
            self.outbuf.push(b'\n');
        }
        self.next_emit += 1;
        self.release_ready();
    }

    /// Move every parked line that is now next in sequence to the output
    /// buffer.
    fn release_ready(&mut self) {
        while let Some(l) = self.pending.remove(&self.next_emit) {
            if !self.dead {
                self.outbuf.extend_from_slice(l.as_bytes());
                self.outbuf.push(b'\n');
            }
            self.next_emit += 1;
        }
    }

    /// Should this connection stop parsing (and reading) input for now?
    fn paused(&self, per_conn_cap: usize) -> bool {
        self.stalled.is_some()
            || self.inflight >= per_conn_cap
            || self.outbuf.len() - self.out_pos >= OUT_CAP
    }

    /// Write as much buffered output as the socket accepts.
    fn flush(&mut self) {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        }
    }

    /// Is this connection fully drained and ready to close?
    fn finished(&self) -> bool {
        if self.inflight > 0 || self.stalled.is_some() {
            return false;
        }
        if self.dead {
            return true;
        }
        self.read_done
            && self.read_err.is_none()
            && self.inbuf.is_empty()
            && self.pending.is_empty()
            && self.out_pos >= self.outbuf.len()
    }
}

/// Run the reactor on `listener` until `stop` is set or a fatal listener
/// error occurs. Blocks the calling thread (it becomes the event loop) and
/// owns a scoped `OOCQ_THREADS` worker pool shared by every connection.
pub fn run(
    listener: &TcpListener,
    engine: &ServiceEngine,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    let (wake_tx, wake_rx) = waker()?;
    poller.register(listener.as_raw_fd(), LISTENER, true, false)?;
    poller.register(wake_rx.raw_fd(), WAKER, true, false)?;
    let queue: Queue<ReactorJob> = Queue::new(engine.queue_bound());
    let flights: Singleflight<Waiter> = Singleflight::new();
    let board = Board {
        notes: Mutex::new(Vec::new()),
        waker: wake_tx,
    };
    let workers = engine.pool_threads().max(1);
    let mut result = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(engine, &queue, &flights, &board));
        }
        let mut ev = EventLoop {
            engine,
            listener,
            poller: &mut poller,
            wake_rx: &wake_rx,
            queue: &queue,
            flights: &flights,
            board: &board,
            conns: HashMap::new(),
            parked: HashMap::new(),
            notes: Vec::new(),
            next_token: FIRST_CONN,
            per_conn_cap: engine.queue_bound(),
            listener_paused: false,
            listener_resume: None,
            accept_backoff: BASE_BACKOFF,
            workers,
        };
        result = ev.run(stop);
        queue.close();
    });
    result
}

/// A reactor serving an engine on an ephemeral loopback port from its own
/// thread, for tests and benches. Dropping it stops the reactor and joins
/// its thread, panicking if the reactor failed.
pub struct Loopback {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Loopback {
    /// Bind `127.0.0.1:0` and start serving `engine` there.
    pub fn start(engine: ServiceEngine) -> std::io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || run(&listener, &engine, &flag));
        Ok(Loopback {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.stop.store(true, SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().unwrap().expect("reactor failed");
        }
    }
}

/// Execute one request under `catch_unwind` so a panic becomes that
/// request's own error response (PR 5 contract) instead of a dead worker.
fn run_job(
    engine: &ServiceEngine,
    req: &Request,
    capture: Option<&Capture>,
    budget: Budget,
    start: Instant,
) -> (Result<String, String>, RequestStats) {
    match catch_unwind(AssertUnwindSafe(|| {
        engine.execute_budgeted(req, capture, budget)
    })) {
        Ok(out) => out,
        Err(_) => (
            Err("internal: worker panicked executing this request".to_owned()),
            RequestStats {
                cached: 0,
                decided: 0,
                wall_us: start.elapsed().as_micros() as u64,
                threads: engine.pool_threads(),
            },
        ),
    }
}

/// A worker thread: pop jobs, coalesce coalescable ones through the
/// singleflight table, post completions to the reactor's board.
fn worker_loop(
    engine: &ServiceEngine,
    queue: &Queue<ReactorJob>,
    flights: &Singleflight<Waiter>,
    board: &Board,
) {
    while let Some(job) = queue.pop() {
        let start = Instant::now();
        let ReactorJob {
            conn,
            seq,
            req,
            capture,
            stats_on,
        } = job;
        let (inner, limit) = split_limit(&req);
        let budget = engine.request_budget(limit);
        // `limit=` requests never coalesce: their work accounting is
        // request-local by definition, and the engine must trip *their*
        // budget, not share a leader's.
        let key = if engine.coalescing() && limit.is_none() {
            match engine.flight_key(inner, capture.as_ref(), &budget) {
                Ok(key) => key,
                Err(msg) => {
                    // The canonical labeling itself tripped the budget.
                    let stats = RequestStats {
                        cached: 0,
                        decided: 0,
                        wall_us: start.elapsed().as_micros() as u64,
                        threads: engine.pool_threads(),
                    };
                    let st = if stats_on { Some(&stats) } else { None };
                    board.post(Note::Done {
                        conn,
                        seq,
                        line: render_response(seq, &Err(msg), st),
                    });
                    continue;
                }
            }
        } else {
            None
        };
        let Some(key) = key else {
            let (result, stats) = run_job(engine, inner, capture.as_ref(), budget, start);
            let st = if stats_on { Some(&stats) } else { None };
            board.post(Note::Done {
                conn,
                seq,
                line: render_response(seq, &result, st),
            });
            continue;
        };
        match flights.join(&key, || Waiter {
            conn,
            seq,
            stats_on,
            start,
        }) {
            JoinOutcome::Joined => {
                // Parked: no worker thread is held. The reactor only needs
                // to hear about it when a deadline could expire first.
                if let Some(d) = engine.deadline() {
                    board.post(Note::Parked {
                        conn,
                        seq,
                        key,
                        deadline: start + d,
                    });
                }
            }
            JoinOutcome::Lead => {
                let (result, stats) = run_job(engine, inner, capture.as_ref(), budget, start);
                // Collect waiters *before* posting anything: everyone
                // parked behind this flight is answered from one verdict.
                for w in flights.complete(&key) {
                    let wstats = RequestStats {
                        cached: 0,
                        decided: 0,
                        wall_us: w.start.elapsed().as_micros() as u64,
                        threads: engine.pool_threads(),
                    };
                    let st = if w.stats_on { Some(&wstats) } else { None };
                    board.post(Note::Done {
                        conn: w.conn,
                        seq: w.seq,
                        line: render_response(w.seq, &result, st),
                    });
                }
                let st = if stats_on { Some(&stats) } else { None };
                board.post(Note::Done {
                    conn,
                    seq,
                    line: render_response(seq, &result, st),
                });
            }
        }
    }
}

struct EventLoop<'a> {
    engine: &'a ServiceEngine,
    listener: &'a TcpListener,
    poller: &'a mut Poller,
    wake_rx: &'a WakeReceiver,
    queue: &'a Queue<ReactorJob>,
    flights: &'a Singleflight<Waiter>,
    board: &'a Board,
    conns: HashMap<u64, Conn>,
    /// Waiters parked behind a leader whose deadline the reactor must
    /// enforce, keyed `(conn, seq)`.
    parked: HashMap<(u64, u64), (FlightKey, Instant)>,
    /// The notes being applied; its buffer is swapped with the board's.
    notes: Vec<Note>,
    next_token: u64,
    /// Max decision requests in flight per connection before its parsing
    /// pauses (reuses the queue bound: one connection can at most fill the
    /// worker queue once over).
    per_conn_cap: usize,
    listener_paused: bool,
    listener_resume: Option<Instant>,
    accept_backoff: Duration,
    workers: usize,
}

impl EventLoop<'_> {
    fn run(&mut self, stop: &AtomicBool) -> std::io::Result<()> {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut dirty: HashSet<u64> = HashSet::new();
        while !stop.load(SeqCst) {
            events.clear();
            let timeout = self.next_timeout();
            self.poller.wait(&mut events, Some(timeout))?;
            let mut accept_now = false;
            for ev in &events {
                match ev.token {
                    LISTENER => accept_now = true,
                    WAKER => {
                        self.wake_rx.drain();
                    }
                    token => {
                        dirty.insert(token);
                    }
                }
            }
            // Drain completions every pass (not only on a waker event: the
            // wake byte may have coalesced into a previous drain).
            if self.apply_notes(&mut dirty) {
                // Queue slots freed: every stalled connection may proceed.
                dirty.extend(
                    self.conns
                        .iter()
                        .filter(|(_, c)| c.stalled.is_some() || c.paused(self.per_conn_cap))
                        .map(|(&t, _)| t),
                );
            }
            self.maybe_resume_listener();
            if accept_now {
                self.accept_burst(&mut dirty)?;
            }
            self.fire_deadlines(&mut dirty);
            for token in dirty.drain() {
                self.pump(token);
            }
        }
        Ok(())
    }

    /// How long the poller may sleep: until the next parked-waiter
    /// deadline or listener-backoff expiry, capped by the idle tick.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut t = IDLE_TICK;
        for (_, deadline) in self.parked.values() {
            t = t.min(deadline.saturating_duration_since(now));
        }
        if let Some(resume) = self.listener_resume {
            t = t.min(resume.saturating_duration_since(now));
        }
        t
    }

    /// Apply worker completions; returns whether any note arrived.
    fn apply_notes(&mut self, dirty: &mut HashSet<u64>) -> bool {
        let mut notes = std::mem::take(&mut self.notes);
        self.board.drain_into(&mut notes);
        let any = !notes.is_empty();
        for note in notes.drain(..) {
            match note {
                Note::Done { conn, seq, line } => {
                    self.parked.remove(&(conn, seq));
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.inflight -= 1;
                        c.emit(seq, line);
                        dirty.insert(conn);
                    }
                }
                Note::Parked {
                    conn,
                    seq,
                    key,
                    deadline,
                } => {
                    // A fan-out racing ahead of this notice already
                    // answered the seq; the stale entry is harmless — its
                    // expiry finds no waiter to remove and does nothing.
                    if self.conns.contains_key(&conn) {
                        self.parked.insert((conn, seq), (key, deadline));
                    }
                }
            }
        }
        self.notes = notes;
        any
    }

    /// Answer `err timeout` for parked waiters whose own deadline passed
    /// while their leader is still computing. The flight table arbitrates
    /// the race with fan-out: whoever removes the waiter first answers it.
    fn fire_deadlines(&mut self, dirty: &mut HashSet<u64>) {
        if self.parked.is_empty() {
            return;
        }
        let now = Instant::now();
        let expired: Vec<((u64, u64), FlightKey)> = self
            .parked
            .iter()
            .filter(|(_, (_, deadline))| *deadline <= now)
            .map(|(&at, (key, _))| (at, key.clone()))
            .collect();
        for ((conn, seq), key) in expired {
            self.parked.remove(&(conn, seq));
            let Some(w) = self
                .flights
                .remove_waiter(&key, |w| w.conn == conn && w.seq == seq)
            else {
                continue; // the leader's fan-out owns this response
            };
            if let Some(c) = self.conns.get_mut(&conn) {
                c.inflight -= 1;
                let stats = RequestStats {
                    cached: 0,
                    decided: 0,
                    wall_us: w.start.elapsed().as_micros() as u64,
                    threads: self.workers,
                };
                let st = if w.stats_on { Some(&stats) } else { None };
                let msg =
                    "timeout: request deadline expired awaiting a coalesced result".to_owned();
                c.answer(seq, &Err(msg), st);
                dirty.insert(conn);
            }
        }
    }

    fn maybe_resume_listener(&mut self) {
        if !self.listener_paused {
            return;
        }
        if let Some(resume) = self.listener_resume {
            if Instant::now() >= resume
                && self
                    .poller
                    .register(self.listener.as_raw_fd(), LISTENER, true, false)
                    .is_ok()
            {
                self.listener_paused = false;
                self.listener_resume = None;
            }
        }
    }

    /// Accept everything pending. Over-cap connections get a best-effort
    /// `err busy` line and are dropped; transient accept errors pause the
    /// listener with exponential backoff (reset on success); fatal ones
    /// abort the reactor.
    fn accept_burst(&mut self, dirty: &mut HashSet<u64>) -> std::io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_backoff = BASE_BACKOFF;
                    if self.conns.len() >= self.engine.max_conns() {
                        // The accepted socket is still blocking (accept
                        // does not inherit O_NONBLOCK); a short write to a
                        // fresh socket buffer cannot stall the loop.
                        let max = self.engine.max_conns();
                        let busy = Err(format!(
                            "busy: connection limit ({max}) reached; try again later"
                        ));
                        let mut stream = stream;
                        let _ = stream.write_all(render_response(0, &busy, None).as_bytes());
                        let _ = stream.write_all(b"\n");
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are small and the client waits on each:
                    // without this, Nagle holds a reply behind the peer's
                    // delayed ACK (~40 ms on Linux).
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                    dirty.insert(token);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if accept_error_is_transient(&e) => {
                    eprintln!(
                        "oocq-serve: accept failed: {e}; pausing accepts for {:?}",
                        self.accept_backoff
                    );
                    let _ = self.poller.deregister(self.listener.as_raw_fd());
                    self.listener_paused = true;
                    self.listener_resume = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(Duration::from_secs(1));
                    break;
                }
                Err(e) => {
                    eprintln!("oocq-serve: accept failed fatally: {e}");
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Advance one connection's state machine: retry a stalled job, read,
    /// parse and dispatch complete lines, flush output, re-register
    /// interest — or close it once fully drained.
    fn pump(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if conn.dead {
            // The in-flight count still drains through Done notes; the
            // stalled job never reached the queue, so account for it here.
            if conn.stalled.take().is_some() {
                conn.inflight -= 1;
            }
        } else {
            if let Some(job) = conn.stalled.take() {
                if let Err(job) = self.queue.try_push(job) {
                    conn.stalled = Some(job);
                }
            }
            self.read_some(&mut conn);
            self.process_lines(token, &mut conn);
            conn.flush();
        }
        if conn.finished() {
            self.close_conn(token, conn);
            return;
        }
        // A failed interest update marks the connection dead, which may
        // make it finished (nothing left to drain) — re-check rather than
        // parking it with a desynced interest set and no wakeup path.
        self.update_interest(token, &mut conn);
        if conn.finished() {
            self.close_conn(token, conn);
            return;
        }
        self.conns.insert(token, conn);
    }

    /// Deregister and drop a drained connection (dropping the [`Conn`]
    /// closes the socket), discarding any parked-deadline entries for it.
    fn close_conn(&mut self, token: u64, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.parked.retain(|&(c, _), _| c != token);
    }

    /// Nonblocking read into the connection's input buffer, bounded by
    /// `IN_CAP` and the pause predicate.
    fn read_some(&self, conn: &mut Conn) {
        if conn.read_done || conn.paused(self.per_conn_cap) {
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        while conn.inbuf.len() < IN_CAP {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_done = true;
                    break;
                }
                Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Report the error as the connection's final response
                    // (after any complete buffered lines), mirroring the
                    // blocking path's mid-stream read error contract.
                    conn.read_done = true;
                    conn.read_err = Some(format!("read error: {e}; closing connection"));
                    break;
                }
            }
        }
    }

    /// Parse and handle every complete buffered line (plus the final
    /// unterminated line at EOF, matching `BufRead::lines`), stopping when
    /// the connection pauses. A line that is valid UTF-8 is handled in
    /// place, borrowed from the input buffer.
    fn process_lines(&self, token: u64, conn: &mut Conn) {
        // Taken out for the duration, so lines can borrow it while the
        // connection is updated.
        let inbuf = std::mem::take(&mut conn.inbuf);
        let mut consumed = 0usize;
        loop {
            if conn.quit || conn.dead {
                consumed = inbuf.len();
                break;
            }
            // Discarding runs even while paused: it consumes bytes without
            // dispatching jobs or growing the output buffer, and stopping
            // it would let the oversized line pin the input buffer at its
            // cap with read interest masked — the connection could never
            // make progress again.
            if conn.discarding {
                match inbuf[consumed..].iter().position(|&b| b == b'\n') {
                    Some(idx) => {
                        consumed += idx + 1;
                        conn.discarding = false;
                        continue;
                    }
                    None => {
                        consumed = inbuf.len();
                        if conn.read_done {
                            // EOF mid-discard: the unterminated tail
                            // belongs to the already-answered oversized
                            // line; only a read error still needs its
                            // final response.
                            if let Some(msg) = conn.read_err.take() {
                                let seq = conn.next_seq;
                                conn.next_seq += 1;
                                conn.answer(seq, &Err(msg), None);
                            }
                        }
                        break;
                    }
                }
            }
            if conn.paused(self.per_conn_cap) {
                break;
            }
            match inbuf[consumed..].iter().position(|&b| b == b'\n') {
                Some(idx) => {
                    let start = consumed;
                    let mut end = consumed + idx;
                    consumed = end + 1;
                    if end > start && inbuf[end - 1] == b'\r' {
                        end -= 1;
                    }
                    let line = String::from_utf8_lossy(&inbuf[start..end]);
                    self.handle_line(token, conn, &line);
                }
                None => {
                    // A line that has already outgrown the input buffer can
                    // never complete (read interest would mask at the cap
                    // and wedge the connection): answer it now, in sequence
                    // order, and discard its bytes through the newline.
                    if inbuf.len() - consumed >= IN_CAP {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let msg =
                            format!("line too long: request lines are capped at {IN_CAP} bytes");
                        let stats = RequestStats {
                            cached: 0,
                            decided: 0,
                            wall_us: 0,
                            threads: self.workers,
                        };
                        let st = if conn.stats_on { Some(&stats) } else { None };
                        conn.answer(seq, &Err(msg), st);
                        conn.discarding = true;
                        continue;
                    }
                    if conn.read_done {
                        if conn.read_err.is_none() && consumed < inbuf.len() {
                            let line = String::from_utf8_lossy(&inbuf[consumed..]);
                            consumed = inbuf.len();
                            self.handle_line(token, conn, &line);
                            continue;
                        }
                        consumed = inbuf.len();
                        if let Some(msg) = conn.read_err.take() {
                            let seq = conn.next_seq;
                            conn.next_seq += 1;
                            conn.answer(seq, &Err(msg), None);
                        }
                    }
                    break;
                }
            }
        }
        conn.inbuf = inbuf;
        conn.inbuf.drain(..consumed);
    }

    /// One request line: inline commands are answered (and session state
    /// mutated) immediately in input order; decision requests capture
    /// their handles now and go to the shared pool.
    fn handle_line(&self, token: u64, conn: &mut Conn, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        let start = Instant::now();
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let mut quit = false;
        let inline: Result<String, String> = match parse_request(line) {
            Err(e) => Err(e),
            Ok(req) if req.is_decision() => match self.engine.snapshot_for(&req) {
                Ok(capture) => {
                    conn.inflight += 1;
                    let job = ReactorJob {
                        conn: token,
                        seq,
                        req,
                        capture,
                        stats_on: conn.stats_on,
                    };
                    if let Err(job) = self.queue.try_push(job) {
                        conn.stalled = Some(job);
                    }
                    return;
                }
                Err(e) => Err(e),
            },
            Ok(Request::Ping) => Ok("pong".to_owned()),
            Ok(Request::Stats(on)) => {
                conn.stats_on = on;
                Ok(format!("stats {}", if on { "on" } else { "off" }))
            }
            Ok(Request::StatsShow) => Ok(self
                .engine
                .stats_report(&self.flights.stats(), conn.inflight)),
            Ok(Request::Quit) => {
                quit = true;
                Ok("bye".to_owned())
            }
            Ok(Request::DefineSchema { session, text }) => {
                self.engine.define_schema(&session, &text)
            }
            Ok(Request::DefineQuery {
                session,
                name,
                text,
            }) => self.engine.define_query(&session, &name, &text),
            Ok(Request::DefineConstraint { session, text }) => {
                self.engine.define_constraint(&session, &text)
            }
            Ok(other) => Err(format!("internal: unhandled request `{other:?}`")),
        };
        let stats = RequestStats {
            cached: 0,
            decided: 0,
            wall_us: start.elapsed().as_micros() as u64,
            threads: self.workers,
        };
        let st = if conn.stats_on { Some(&stats) } else { None };
        conn.answer(seq, &inline, st);
        if quit {
            conn.quit = true;
            conn.read_done = true;
        }
    }

    /// Re-register the connection's interest set when it changed. Interest
    /// masking is what keeps level-triggered polling from busy-looping:
    /// a paused connection stops reporting readable, a drained one stops
    /// reporting writable.
    fn update_interest(&self, token: u64, conn: &mut Conn) {
        let want_read = !conn.read_done
            && !conn.dead
            && !conn.paused(self.per_conn_cap)
            && conn.inbuf.len() < IN_CAP;
        let want_write = !conn.dead && conn.out_pos < conn.outbuf.len();
        if (want_read, want_write) != (conn.want_read, conn.want_write) {
            match self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want_read, want_write)
            {
                Ok(()) => {
                    conn.want_read = want_read;
                    conn.want_write = want_write;
                }
                // The registered interest set is now unknowable; treat it
                // like a peer failure: discard output, let in-flight work
                // drain through its completion notes, then close.
                Err(_) => conn.dead = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CanonicalDecisionCache;
    use oocq_core::EngineConfig;
    use std::io::BufReader;

    fn connect(h: &Loopback) -> TcpStream {
        TcpStream::connect(h.addr()).unwrap()
    }

    /// Send a whole program, read lines until the connection closes.
    fn roundtrip(h: &Loopback, input: &str) -> String {
        let mut s = connect(h);
        s.write_all(input.as_bytes()).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        BufReader::new(s).read_to_string(&mut out).unwrap();
        out
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

    /// Two workers post many notes at once while the consumer sleeps only
    /// on the wake channel and, like the event loop, drains the channel
    /// before it takes the notes. Only the post that makes the list
    /// non-empty writes a wake byte, so a lost wake would leave notes on
    /// the board with the consumer asleep; every note must still arrive,
    /// in each worker's order.
    #[test]
    fn notes_posted_from_two_threads_all_arrive() {
        const PER_THREAD: u64 = 50_000;
        let (tx, rx) = waker().unwrap();
        let board = Board {
            notes: Mutex::new(Vec::new()),
            waker: tx,
        };
        let mut poller = Poller::new().unwrap();
        poller.register(rx.raw_fd(), WAKER, true, false).unwrap();
        std::thread::scope(|scope| {
            for conn in 0..2u64 {
                let board = &board;
                scope.spawn(move || {
                    for seq in 0..PER_THREAD {
                        board.post(Note::Done {
                            conn,
                            seq,
                            line: String::new(),
                        });
                        if seq % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut next = [0u64; 2];
            let mut notes = Vec::new();
            let mut events = Vec::new();
            while next.iter().sum::<u64>() < 2 * PER_THREAD {
                events.clear();
                poller
                    .wait(&mut events, Some(Duration::from_secs(10)))
                    .unwrap();
                assert!(
                    !events.is_empty(),
                    "asleep with notes outstanding: {next:?} of {PER_THREAD} per thread arrived"
                );
                rx.drain();
                board.drain_into(&mut notes);
                for note in notes.drain(..) {
                    let Note::Done { conn, seq, .. } = note else {
                        panic!("only completions were posted");
                    };
                    assert_eq!(seq, next[conn as usize], "worker {conn} out of order");
                    next[conn as usize] += 1;
                }
            }
        });
    }

    #[test]
    fn a_session_round_trips_with_ordered_seqs() {
        let h = Loopback::start(engine(4)).unwrap();
        let mut input = SESSION.to_owned();
        for _ in 0..8 {
            input.push_str("contains s R Q\ncontains s Q R\nminimize s R\n");
        }
        input.push_str("quit\n");
        let out = roundtrip(&h, &input);
        let seqs: Vec<u64> = out
            .lines()
            .map(|l| l[1..l.find(']').unwrap()].parse().unwrap())
            .collect();
        let expected: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, expected, "{out}");
        assert!(out.contains("ok holds"), "{out}");
        assert!(
            out.ends_with(&format!("[{}] ok bye\n", seqs.len() - 1)),
            "{out}"
        );
    }

    #[test]
    fn eof_without_quit_and_unterminated_final_line_drain_cleanly() {
        let h = Loopback::start(engine(2)).unwrap();
        // No trailing newline on the last request: `BufRead::lines`
        // semantics say it still counts.
        let out = roundtrip(
            &h,
            "stats off\nschema s class C {}\nquery s Q { x | x in C }\ncontains s Q Q",
        );
        assert!(out.ends_with("[3] ok holds\n"), "{out}");
    }

    /// The regression this pins: a single line longer than `IN_CAP` used
    /// to fill the input buffer with no newline in sight, mask read
    /// interest, and wedge the connection forever (with a level-triggered
    /// hangup event spinning the reactor at 100% CPU once the peer
    /// half-closed). It must instead be answered `err line too long` with
    /// its bytes discarded through the newline, leaving the connection
    /// fully usable.
    #[test]
    fn an_oversized_line_is_rejected_without_wedging_the_connection() {
        let h = Loopback::start(engine(2)).unwrap();
        let mut s = connect(&h);
        s.write_all(b"stats off\n").unwrap();
        // 1.5 MiB of garbage, then the newline that ends it, then more
        // requests that must still be served.
        s.write_all(&vec![b'x'; IN_CAP + IN_CAP / 2]).unwrap();
        s.write_all(b"\nping\nquit\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        BufReader::new(s).read_to_string(&mut out).unwrap();
        assert!(out.contains("[1] err line too long"), "{out}");
        assert!(out.contains("[2] ok pong"), "{out}");
        assert!(out.ends_with("[3] ok bye\n"), "{out}");
    }

    /// The exact scenario from the wedge report: an oversized line that
    /// never gets its newline, followed by a half-close. The reactor must
    /// answer the error, drain the stream to EOF, and close — not hang.
    #[test]
    fn an_oversized_unterminated_line_drains_to_eof_and_closes() {
        let h = Loopback::start(engine(2)).unwrap();
        let mut s = connect(&h);
        s.write_all(b"stats off\n").unwrap();
        s.write_all(&vec![b'y'; 2 * IN_CAP]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        // read_to_string returning at all proves the connection closed.
        BufReader::new(s).read_to_string(&mut out).unwrap();
        assert!(out.contains("[0] ok stats off"), "{out}");
        assert!(
            out.ends_with("[1] err line too long: request lines are capped at 1048576 bytes\n"),
            "{out}"
        );
    }

    #[test]
    fn a_panicking_request_is_isolated_to_its_own_response() {
        let h = Loopback::start(engine(2)).unwrap();
        let out = roundtrip(
            &h,
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
    fn connections_beyond_the_cap_get_err_busy() {
        let h = Loopback::start(engine(1).with_max_conns(1)).unwrap();
        // Hold one connection open (mid-session, nothing sent).
        let held = connect(&h);
        // Give the reactor a moment to register it.
        std::thread::sleep(Duration::from_millis(100));
        // The over-cap connection is answered without us sending a byte.
        let mut out = String::new();
        BufReader::new(connect(&h))
            .read_to_string(&mut out)
            .unwrap();
        assert!(
            out.contains("err busy: connection limit (1) reached"),
            "{out}"
        );
        drop(held);
        // Capacity freed: the next connection is served normally.
        std::thread::sleep(Duration::from_millis(300));
        let out = roundtrip(&h, "stats off\nping\nquit\n");
        assert!(out.contains("[1] ok pong"), "{out}");
    }

    #[test]
    fn stats_show_reports_cache_and_coalescing_counters() {
        let h = Loopback::start(engine(2)).unwrap();
        let out = roundtrip(
            &h,
            "stats off\nschema s class C {}\nquery s Q { x | x in C }\n\
             contains s Q Q\ncontains s Q Q\nstats show\nquit\n",
        );
        let show = out
            .lines()
            .find(|l| l.starts_with("[5]"))
            .unwrap_or_else(|| panic!("no stats line in {out}"));
        assert!(show.contains("cache: contains_hits="), "{show}");
        assert!(show.contains("| coalesce: leaders="), "{show}");
        // The two decisions may still be in flight when `stats show` is
        // parsed (it answers inline), so only pin the field's presence.
        assert!(show.contains("| conn: backlog="), "{show}");
    }

    #[test]
    fn stats_suffix_toggles_like_the_blocking_path() {
        let h = Loopback::start(engine(1)).unwrap();
        let out = roundtrip(
            &h,
            "schema s class C {}\nquery s Q { x | x in C }\ncontains s Q Q\n\
             stats off\ncontains s Q Q\nquit\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains(" # cached=0 decided=0"), "{:?}", lines[0]);
        assert!(lines[2].contains("ok holds # cached="), "{:?}", lines[2]);
        assert!(!lines[4].contains('#'), "{:?}", lines[4]);
        assert_eq!(lines[4], "[4] ok holds");
    }

    /// K identical concurrent cold requests with the cache disabled: the
    /// singleflight table must run exactly one computation and fan the
    /// verdict out, while a concurrent `limit=`-budgeted request (which
    /// bypasses coalescing) trips its own `err timeout` without cancelling
    /// the leader. The coalesced check targets the engine's test-only
    /// `__slow__` latency hook, which holds the leader in flight for a
    /// full second — wide enough that every other connection's join is
    /// deterministic even on a loaded CI machine, so the counters below
    /// can assert *exactly one* leader instead of racing the scheduler.
    #[test]
    fn concurrent_identical_requests_coalesce_into_one_computation() {
        let h = Loopback::start(ServiceEngine::with_cache(
            EngineConfig::with_threads(8),
            None,
        ))
        .unwrap();
        let vars: Vec<String> = (1..=12).map(|i| format!("x{i}")).collect();
        let chain: String = vars
            .windows(2)
            .map(|w| format!(" & {} != {}", w[0], w[1]))
            .collect();
        let big = format!(
            "{{ x0 | exists {}, z, y: x0 in T1{}{chain} & z in T1 & y in T2 & x0 in y.A & z not in y.A }}",
            vars.join(", "),
            vars.iter()
                .map(|v| format!(" & {v} in T1"))
                .collect::<String>(),
        );
        let setup = format!(
            "stats off\nschema s class T1 {{}} class T2 {{ A: {{T1}}; }}\n\
             query s Big {}\n\
             query s R {{ x | exists u, y: x in T1 & u in T1 & y in T2 & u not in y.A }}\n\
             query s __slow__ {{ x | x in T1 }}\nquit\n",
            crate::protocol::escape(&big),
        );
        assert!(roundtrip(&h, &setup).contains("[4] ok query __slow__ defined"));

        const K: usize = 6;
        let mut conns: Vec<TcpStream> = (0..K).map(|_| connect(&h)).collect();
        let mut limited = connect(&h);
        // Fire the identical slow check from K connections at once…
        for c in &mut conns {
            c.write_all(b"stats off\ncontains s __slow__ __slow__\nquit\n")
                .unwrap();
        }
        // …and a budgeted expensive check that must trip its own limit
        // while the coalesced flight is still in the air.
        limited
            .write_all(b"stats off\nlimit=50 contains s Big R\nquit\n")
            .unwrap();
        let mut verdicts = Vec::new();
        for c in conns.drain(..) {
            let mut out = String::new();
            BufReader::new(c).read_to_string(&mut out).unwrap();
            let verdict = out
                .lines()
                .find(|l| l.starts_with("[1]"))
                .unwrap_or_else(|| panic!("no verdict in {out}"))
                .to_owned();
            verdicts.push(verdict);
        }
        assert!(verdicts.iter().all(|v| v == &verdicts[0]), "{verdicts:?}");
        assert!(verdicts[0].contains("ok"), "{verdicts:?}");
        let mut lim_out = String::new();
        BufReader::new(limited)
            .read_to_string(&mut lim_out)
            .unwrap();
        assert!(lim_out.contains("[1] err timeout"), "{lim_out}");

        // The coalescing counters must show one leader absorbing the other
        // K-1 as waiters. (The limit= request bypasses the table, and the
        // cache is off, so nothing else can explain a single computation.)
        let show = roundtrip(&h, "stats off\nstats show\nquit\n");
        let line = show
            .lines()
            .find(|l| l.contains("coalesce:"))
            .unwrap_or_else(|| panic!("no coalesce line in {show}"));
        let field = |name: &str| -> u64 {
            let at = line
                .find(name)
                .unwrap_or_else(|| panic!("{name} in {line}"));
            line[at + name.len()..]
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(field("leaders="), 1, "{line}");
        assert_eq!(field("waiters="), (K - 1) as u64, "{line}");
        assert_eq!(field("fanouts="), (K - 1) as u64, "{line}");
        assert_eq!(field("inflight="), 0, "{line}");
        assert!(line.contains("cache: disabled"), "{line}");
    }
}
