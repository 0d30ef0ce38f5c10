//! Minimal readiness polling for the serving reactor.
//!
//! [`Poller`] is a thin, level-triggered readiness-notification facade
//! over Linux `epoll`, through direct FFI declarations against the C
//! library the standard library already links (no external crate). TCP
//! serving needs it, so the poller, the [`Waker`] and the reactor exist on
//! Linux only; elsewhere the daemon serves stdin/stdout and refuses
//! `OOCQ_LISTEN` with an `Unsupported` error.
//!
//! The `sys` island below is the crate's single `#[allow(unsafe_code)]`
//! region; besides epoll it carries the one-line `flock` shim behind
//! [`try_exclusive_lock`], the persistent decision cache's single-writer
//! directory lock.
//!
//! The facade is deliberately tiny — register / modify / deregister a raw
//! fd under a `u64` token, then [`Poller::wait`] for `(token, readable,
//! writable)` events — because the reactor only ever needs level-triggered
//! semantics: it re-computes each connection's interest set from its own
//! state machine after every step, so edge-triggered bookkeeping would buy
//! nothing.
//!
//! [`Waker`] is the cross-thread wakeup primitive: a nonblocking
//! `UnixStream` pair whose read end is registered like any other source,
//! so worker threads can interrupt a blocked [`Poller::wait`] by writing
//! one byte.

use std::io;
#[cfg(target_os = "linux")]
use std::os::fd::RawFd;
#[cfg(target_os = "linux")]
use std::time::Duration;

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or peer-closed / error — a read will resolve which).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// The sole unsafe region of the crate: FFI declarations for the four
/// epoll entry points (plus `close`) in the C library `std` already links
/// on Linux, and the calls into them. Nothing here is clever: every
/// pointer passed is derived from a live Rust slice or struct, every fd is
/// owned by the caller, and errors are read back through
/// `io::Error::last_os_error`.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: c_int = 0x80000;

    /// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel
    /// ABI packs it to 12 bytes; elsewhere it uses natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    const LOCK_EX: c_int = 2;
    const LOCK_NB: c_int = 4;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn flock(fd: c_int, operation: c_int) -> c_int;
    }

    /// Try to take a non-blocking exclusive `flock` on `fd` (the persistent
    /// decision cache's single-writer lock). `Ok(false)` means another
    /// process holds it. Advisory locks die with the owning process, so a
    /// `kill -9`'d daemon never wedges the cache directory.
    pub fn try_exclusive_lock(fd: RawFd) -> io::Result<bool> {
        loop {
            if unsafe { flock(fd, LOCK_EX | LOCK_NB) } == 0 {
                return Ok(true);
            }
            let e = io::Error::last_os_error();
            match e.kind() {
                io::ErrorKind::Interrupted => continue,
                io::ErrorKind::WouldBlock => return Ok(false),
                _ => return Err(e),
            }
        }
    }

    pub fn create() -> io::Result<RawFd> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn ctl(epfd: RawFd, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        let ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        if unsafe { epoll_ctl(epfd, op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait for events; `timeout_ms < 0` blocks indefinitely. `EINTR`
    /// surfaces as zero events rather than an error.
    pub fn wait(epfd: RawFd, buf: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }

    pub fn close_fd(fd: RawFd) {
        let _ = unsafe { close(fd) };
    }
}

/// A level-triggered epoll instance (see the module docs).
#[cfg(target_os = "linux")]
pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
fn interest(readable: bool, writable: bool) -> u32 {
    let mut ev = 0;
    if readable {
        // RDHUP rides along with read interest only: a source whose
        // reads are masked (reactor backpressure) must not busy-wake
        // on a half-closed peer it is not ready to hear — the hangup
        // is still pending, level-triggered, when reads re-enable,
        // and a full close reports EPOLLERR/EPOLLHUP unconditionally.
        ev |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if writable {
        ev |= sys::EPOLLOUT;
    }
    ev
}

#[cfg(target_os = "linux")]
impl Poller {
    /// A fresh poller able to report up to 1024 events per wait.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::create()?,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    /// Start watching `fd` under `token` for the given interest set.
    pub fn register(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            interest(readable, writable),
            token,
        )
    }

    /// Replace the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            interest(readable, writable),
            token,
        )
    }

    /// Stop watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until at least one event is ready or `timeout` elapses
    /// (`None` blocks indefinitely), appending events to `out`.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = match timeout {
            // Round up so a 100µs deadline cannot spin at timeout 0.
            Some(t) => t.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
            None => -1,
        };
        let n = sys::wait(self.epfd, &mut self.buf, timeout_ms)?;
        for ev in &self.buf[..n] {
            let bits = ev.events;
            // Error/hangup conditions surface as readability: the next
            // read returns 0 or the error, which is exactly how the
            // reactor's connection state machine learns about them.
            let fail = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
            out.push(PollEvent {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0 || fail,
                writable: bits & sys::EPOLLOUT != 0 || fail,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// Cross-thread wakeup for a blocked [`Poller::wait`]: a nonblocking
/// socket pair whose read end is registered under a reserved token. Worker
/// threads call [`Waker::wake`]; the reactor drains with
/// [`WakeReceiver::drain`].
#[cfg(target_os = "linux")]
pub fn waker() -> io::Result<(Waker, WakeReceiver)> {
    use std::os::unix::net::UnixStream;
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

/// The writing half of the wakeup pair (cheap to clone).
#[cfg(target_os = "linux")]
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
}

#[cfg(target_os = "linux")]
impl Waker {
    /// Interrupt the poller. A full pipe means a wakeup is already
    /// pending, so `WouldBlock` (and any other error) is ignored.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1]);
    }

    /// An independent handle to the same wakeup channel.
    pub fn try_clone(&self) -> io::Result<Waker> {
        Ok(Waker {
            tx: self.tx.try_clone()?,
        })
    }
}

/// The reading half of the wakeup pair, owned by the reactor.
#[cfg(target_os = "linux")]
pub struct WakeReceiver {
    rx: std::os::unix::net::UnixStream,
}

#[cfg(target_os = "linux")]
impl WakeReceiver {
    /// The fd to register with the poller.
    pub fn raw_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Consume pending wakeup bytes so a level-triggered poller stops
    /// reporting the channel ready. Returns how many bytes were drained.
    pub fn drain(&self) -> usize {
        use std::io::Read;
        let mut total = 0;
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.rx).read(&mut buf) {
            if n == 0 {
                break;
            }
            total += n;
        }
        total
    }
}

/// Try to take the non-blocking exclusive advisory lock on `file` that
/// guards a persistent cache directory against concurrent writers.
/// `Ok(false)` means another live process holds it.
///
/// On Linux this is `flock(2)` through the [`sys`] island: the kernel
/// releases the lock when the owning process dies, however it dies, so a
/// crashed daemon never leaves the directory wedged. Elsewhere there is no
/// portable advisory lock in `std`, so the fallback grants the lock
/// whenever the marker file was newly created and treats a pre-existing
/// one as contended — a stale marker after a crash then costs one cold
/// start (the operator removes it), never corruption, because the log
/// format itself is append-only and checksummed.
pub(crate) fn try_exclusive_lock(file: &std::fs::File, newly_created: bool) -> io::Result<bool> {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        let _ = newly_created;
        sys::try_exclusive_lock(file.as_raw_fd())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = file;
        Ok(newly_created)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn poller_reports_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, true, false)
            .unwrap();

        // Nothing pending: a short wait returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7), "{events:?}");

        // A pending connection makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // An idle established stream is writable but not readable...
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.register(server.as_raw_fd(), 9, true, true).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 9).unwrap();
        assert!(ev.writable);

        // ...and becomes readable once the peer sends bytes.
        poller.modify(server.as_raw_fd(), 9, true, false).unwrap();
        client.write_all(b"hi").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
        let mut buf = [0u8; 8];
        let mut server = server;
        assert_eq!(server.read(&mut buf).unwrap(), 2);
        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let (tx, rx) = waker().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(rx.raw_fd(), 1, true, false).unwrap();
        // Wake from a clone and keep `tx` alive: dropping the last writer
        // would hang up the pipe and leave the read end ready forever.
        let tx2 = tx.try_clone().unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            tx2.wake();
            tx2.wake(); // coalesces with the first, must not error
        });
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        handle.join().unwrap(); // both wake bytes are in the pipe now
        rx.drain();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert!(events.is_empty(), "drained waker still ready: {events:?}");
    }

    #[test]
    fn waker_drain_reports_how_many_bytes_arrived() {
        let (tx, rx) = waker().unwrap();
        assert_eq!(rx.drain(), 0);
        tx.wake();
        tx.wake();
        assert_eq!(rx.drain(), 2);
        assert_eq!(rx.drain(), 0);
    }
}
