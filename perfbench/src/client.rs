//! The load side: spawning `oocq-serve` with explicit knobs, and one
//! poll-multiplexed client thread driving closed-loop operations over
//! loopback TCP.

use crate::workload::{Op, Plan};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong, c_void};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections (one per core of the reference 2-core host).
pub const CONNS: usize = 2;
/// Daemon worker threads (`OOCQ_THREADS`).
pub const THREADS: usize = 2;
/// How long a daemon may leave requests unanswered before the run fails.
const STALL: Duration = Duration::from_secs(60);

/// The daemon's configuration, set explicitly on every spawn.
pub struct Knobs {
    pub cache_capacity: usize,
    /// Distinct verdicts the disk tier may hold (`OOCQ_CACHE_DISK_CAPACITY`).
    pub disk_capacity: usize,
    /// Disk tier directory; `None` runs memory-only.
    pub cache_dir: Option<PathBuf>,
}

impl Knobs {
    /// Every `OOCQ_*` variable the daemon is started with.
    pub fn env(&self) -> Vec<(&'static str, String)> {
        let mut env = vec![
            ("OOCQ_LISTEN", "127.0.0.1:0".to_owned()),
            ("OOCQ_THREADS", THREADS.to_string()),
            ("OOCQ_PRUNE", "1".to_owned()),
            ("OOCQ_CACHE_CAPACITY", self.cache_capacity.to_string()),
            ("OOCQ_CACHE_DISK_CAPACITY", self.disk_capacity.to_string()),
            ("OOCQ_DEADLINE_MS", "0".to_owned()),
            ("OOCQ_QUEUE_BOUND", "0".to_owned()),
            ("OOCQ_MAX_CONNS", "64".to_owned()),
            ("OOCQ_COALESCE", "1".to_owned()),
        ];
        match &self.cache_dir {
            Some(dir) => {
                env.push(("OOCQ_CACHE_PERSIST", "1".to_owned()));
                env.push(("OOCQ_CACHE_DIR", dir.display().to_string()));
            }
            None => env.push(("OOCQ_CACHE_PERSIST", "0".to_owned())),
        }
        env
    }
}

/// A running `oocq-serve`; dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(server: &Path, knobs: &Knobs) -> io::Result<Daemon> {
        let mut cmd = Command::new(server);
        // Nothing inherited may change the numbers: drop every OOCQ_*
        // variable of the caller, then set each knob explicitly.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("OOCQ_") {
                cmd.env_remove(&key);
            }
        }
        cmd.envs(knobs.env())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = reader
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.strip_prefix("oocq-serve listening on "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon did not start: {}",
                line.trim()
            )));
        };
        let stderr = std::thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::stderr());
        });
        Ok(Daemon {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
}

const IPPROTO_TCP: c_int = 6;
const TCP_QUICKACK: c_int = 12;

/// Acknowledge received data at once instead of after the kernel's
/// delayed-ACK timer. The daemon does not set `TCP_NODELAY`, so without
/// this every response written behind an unacknowledged one waits ~40 ms
/// for our ACK. Linux clears the flag as it acts on it, so it is re-armed
/// after every read.
fn quickack(fd: c_int) {
    let one: c_int = 1;
    // SAFETY: `value` points at a live `c_int` for the duration of the call
    // and `len` is its size, as setsockopt(2) requires.
    unsafe {
        setsockopt(
            fd,
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&one as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        );
    }
}

fn wait(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<()> {
    // SAFETY: `fds` is an exclusively borrowed slice of `struct pollfd`
    // layout records that stays alive for the whole call, and `nfds` is its
    // length, so poll(2) reads and writes only inside it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

struct Pending {
    pair: usize,
    start: Instant,
    /// Responses still due: two `query` bindings, then the decision.
    left: u8,
    failed: bool,
}

/// One nonblocking client connection with its in-flight operations.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
    head: usize,
    pending: VecDeque<Pending>,
    closed: bool,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            sent: 0,
            inbuf: Vec::new(),
            head: 0,
            pending: VecDeque::new(),
            closed: false,
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(())
    }

    /// Read everything available. `Ok(true)` means the peer closed.
    fn fill(&mut self) -> io::Result<bool> {
        let mut buf = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(true),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    quickack(self.stream.as_raw_fd());
                    return Ok(false);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn take_line(&mut self) -> Option<String> {
        let pos = self.inbuf[self.head..].iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.inbuf[self.head..self.head + pos]).into_owned();
        self.head += pos + 1;
        if self.head == self.inbuf.len() {
            self.inbuf.clear();
            self.head = 0;
        } else if self.head > 1 << 16 {
            self.inbuf.drain(..self.head);
            self.head = 0;
        }
        Some(line)
    }

    fn pollfd(&self) -> PollFd {
        let out = if self.out.is_empty() { 0 } else { POLLOUT };
        PollFd {
            fd: self.stream.as_raw_fd(),
            events: POLLIN | out,
            revents: 0,
        }
    }

    /// Send request lines and wait for as many responses.
    fn call(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        for l in lines {
            self.out.extend_from_slice(l.as_bytes());
            self.out.push(b'\n');
        }
        let deadline = Instant::now() + STALL;
        let mut got = Vec::with_capacity(lines.len());
        loop {
            self.flush()?;
            while got.len() < lines.len() {
                match self.take_line() {
                    Some(l) => got.push(l),
                    None => break,
                }
            }
            if got.len() == lines.len() {
                return Ok(got);
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "daemon stopped answering",
                ));
            }
            wait(&mut [self.pollfd()], 100)?;
            if self.fill()? && self.inbuf[self.head..].iter().all(|&b| b != b'\n') {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
        }
    }

    /// `stats show`, parsed into `section.key → value` counters.
    pub fn stats_show(&mut self) -> io::Result<HashMap<String, u64>> {
        let line = self.call(&["stats show".to_owned()])?.remove(0);
        let (ok, payload, _) = split_response(&line);
        if !ok {
            return Err(io::Error::other(format!("stats show failed: {line}")));
        }
        let mut out = HashMap::new();
        for section in payload.split(" | ") {
            let Some((name, body)) = section.split_once(':') else {
                continue;
            };
            for kv in body.split_whitespace() {
                if let Some((k, v)) = kv.split_once('=') {
                    if let Ok(n) = v.parse() {
                        out.insert(format!("{}.{k}", name.trim()), n);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Split a response line into (is `ok`, payload, `wall_us` of the stats
/// suffix when present).
fn split_response(line: &str) -> (bool, &str, Option<u64>) {
    let rest = line.split_once("] ").map_or(line, |(_, r)| r);
    let (body, wall) = match rest.rfind(" # cached=") {
        Some(i) => {
            let wall = rest[i..]
                .split_whitespace()
                .find_map(|t| t.strip_prefix("wall_us="))
                .and_then(|v| v.parse().ok());
            (&rest[..i], wall)
        }
        None => (rest, None),
    };
    match body.strip_prefix("ok") {
        Some(p) => (true, p.strip_prefix(' ').unwrap_or(p), wall),
        None => (false, body, wall),
    }
}

/// A daemon with its client connections, set up and answering.
pub struct Served {
    pub daemon: Daemon,
    pub conns: Vec<Conn>,
    /// Spawn to first answered `ping` after every session is defined.
    pub setup: Duration,
}

/// Spawn the daemon, connect, choose the stats suffix, define the plan's
/// sessions and wait for `pong`. The daemon replays its decision log (if
/// any) before it listens, so that is inside `setup` too.
pub fn start(server: &Path, knobs: &Knobs, plan: &Plan, stats_on: bool) -> io::Result<Served> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(server, knobs)?;
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        conns.push(Conn::connect(daemon.addr)?);
    }
    let mode = if stats_on { "stats on" } else { "stats off" };
    for c in &mut conns {
        c.call(&[mode.to_owned()])?;
    }
    let mut lines = plan.schema_lines();
    lines.push("ping".to_owned());
    let got = conns[0].call(&lines)?;
    let pong = got
        .last()
        .is_some_and(|l| split_response(l).1.starts_with("pong"));
    if let Some(bad) = got.iter().find(|l| !split_response(l).0) {
        return Err(io::Error::other(format!("setup request failed: {bad}")));
    }
    if !pong {
        return Err(io::Error::other("setup ended without pong"));
    }
    Ok(Served {
        daemon,
        conns,
        setup: t0.elapsed(),
    })
}

/// What one driven stream measured.
#[derive(Default)]
pub struct Window {
    /// Pair of every operation issued, in order.
    pub issued: Vec<usize>,
    /// First byte of the triple to the decision's response, per operation.
    pub latencies_ns: Vec<u64>,
    /// When each of those operations was issued, from the window's start.
    pub started_ns: Vec<u64>,
    /// The daemon's `wall_us` per decision (stats on only).
    pub wall_us: Vec<u64>,
    /// Client latency minus `wall_us` per decision (stats on only).
    pub overhead_us: Vec<u64>,
    /// Operations answered `err`, or lost to a closed connection.
    pub failed: u64,
    /// Decisions whose answer differs from the reference.
    pub mismatches: u64,
    pub mismatch_sample: Vec<String>,
    /// Operations completed while the window was open.
    pub completed: u64,
    pub window: Duration,
    /// The stream ran out before the window closed.
    pub exhausted: bool,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.issued.len() as u64
    }

    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

fn absorb(
    c: &mut Conn,
    line: &str,
    plan: &Plan,
    w: &mut Window,
    t0: Instant,
    open: bool,
) -> io::Result<()> {
    let Some(front) = c.pending.front_mut() else {
        return Err(io::Error::other(format!("unexpected response: {line}")));
    };
    let (ok, payload, wall) = split_response(line);
    front.left -= 1;
    front.failed |= !ok;
    if front.left > 0 {
        return Ok(());
    }
    let p = c.pending.pop_front().expect("front exists");
    let lat = p.start.elapsed();
    if p.failed {
        w.failed += 1;
    } else if payload != plan.pairs[p.pair].expect {
        w.mismatches += 1;
        if w.mismatch_sample.len() < 5 {
            w.mismatch_sample.push(format!(
                "pair {}: got `{payload}`, reference `{}`",
                p.pair, plan.pairs[p.pair].expect
            ));
        }
    }
    w.latencies_ns.push(lat.as_nanos() as u64);
    w.started_ns
        .push(p.start.saturating_duration_since(t0).as_nanos() as u64);
    if let Some(us) = wall {
        w.wall_us.push(us);
        w.overhead_us
            .push((lat.as_micros() as u64).saturating_sub(us));
    }
    if open {
        w.completed += 1;
    }
    Ok(())
}

/// Drive `ops` closed-loop, keeping up to `depth` operations in flight per
/// connection. With `limit`, operations are issued for that long (or until
/// the stream ends) and the ones in flight are drained; without it, the
/// whole stream is run. Every decision is checked against its reference.
pub fn drive(
    conns: &mut [Conn],
    plan: &Plan,
    ops: &mut dyn Iterator<Item = Op>,
    depth: usize,
    limit: Option<Duration>,
) -> io::Result<Window> {
    let mut w = Window::default();
    let t0 = Instant::now();
    let mut open = true;
    let mut closed_at = t0;
    let mut last_progress = t0;
    loop {
        let now = Instant::now();
        if open && limit.is_some_and(|d| now >= t0 + d) {
            open = false;
            closed_at = now;
        }
        if open {
            'issue: for (ci, c) in conns.iter_mut().enumerate() {
                if c.closed {
                    continue;
                }
                while c.pending.len() < depth {
                    let Some(op) = ops.next() else {
                        open = false;
                        closed_at = Instant::now();
                        w.exhausted = limit.is_some();
                        c.flush()?;
                        break 'issue;
                    };
                    plan.wire(op, ci, &mut c.out);
                    c.pending.push_back(Pending {
                        pair: op.pair,
                        start: Instant::now(),
                        left: 3,
                        failed: false,
                    });
                    w.issued.push(op.pair);
                }
                c.flush()?;
            }
            if conns.iter().all(|c| c.closed) {
                open = false;
                closed_at = Instant::now();
            }
        }
        if !open && conns.iter().all(|c| c.pending.is_empty()) {
            break;
        }
        if now.duration_since(last_progress) > STALL {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                "daemon stopped answering",
            ));
        }
        let mut fds: Vec<PollFd> = conns.iter().map(Conn::pollfd).collect();
        wait(&mut fds, 5)?;
        for (c, fd) in conns.iter_mut().zip(&fds) {
            if c.closed {
                continue;
            }
            if fd.revents & POLLOUT != 0 {
                c.flush()?;
            }
            if fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                let eof = c.fill()?;
                while let Some(line) = c.take_line() {
                    absorb(c, &line, plan, &mut w, t0, open)?;
                    last_progress = Instant::now();
                }
                if eof {
                    w.failed += c.pending.len() as u64;
                    c.pending.clear();
                    c.closed = true;
                }
            }
        }
    }
    w.window = closed_at - t0;
    Ok(w)
}
