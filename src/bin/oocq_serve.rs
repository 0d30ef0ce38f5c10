//! `oocq-serve` — the concurrent containment/minimization daemon.
//!
//! Speaks the line-delimited protocol of `oocq_service::serve` over
//! stdin/stdout, or over TCP when `OOCQ_LISTEN=<addr:port>` is set.
//! `OOCQ_THREADS` sizes the worker pool; `OOCQ_CACHE_CAPACITY` sizes the
//! canonical decision cache (`0` disables it); `OOCQ_CACHE_DIR` adds its
//! disk tier, bounded by `OOCQ_CACHE_DISK_CAPACITY`; `OOCQ_DEADLINE_MS`
//! gives every decision request a wall-clock deadline (`err timeout` on
//! trip, connection and cache stay usable); `OOCQ_QUEUE_BOUND` caps the
//! dispatcher→worker queue (default `16 × threads`), so a slow pool
//! pushes back on the client instead of buffering an unbounded backlog.
//! `ServiceEngine::from_env` documents each knob.
//!
//! TCP connections are served by an event-driven reactor multiplexing
//! every session over that one worker pool, with singleflight coalescing
//! of concurrent identical decisions (DESIGN.md §11); `OOCQ_MAX_CONNS`
//! caps concurrent connections (default 4096, `err busy` past the cap).
//! The reactor sleeps on epoll, so TCP serving needs Linux; elsewhere
//! `OOCQ_LISTEN` is refused and stdin mode still works.

fn main() {
    if let Err(e) = oocq_service::daemon_main() {
        eprintln!("oocq-serve: {e}");
        std::process::exit(1);
    }
}
