//! # oocq-service
//!
//! A concurrent containment/minimization service over the `oocq` engine:
//! the `oocq-serve` daemon, its line-delimited protocol, named schema
//! sessions, a worker pool that reuses the branch engine, and a shared
//! canonical-form decision cache ([`CanonicalDecisionCache`]) that
//! memoizes containment verdicts up to query isomorphism (Theorem 4.5
//! makes isomorphism the right equivalence to key on).
//!
//! Layering: this crate sits above `oocq-core` (which exposes the
//! [`oocq_core::DecisionCache`] hook the cache plugs into) and below the
//! root `oocq` crate (whose workbench delegates to [`run_program_with`]).
//!
//! Serving: [`serve`] answers one request stream (the daemon's stdin
//! mode, and the reference every transport test diffs against);
//! [`reactor::run`] is the one TCP server, an epoll event loop that exists
//! on Linux only. [`daemon_main`] picks between them by `OOCQ_LISTEN`, and
//! [`ServiceEngine::from_env`] reads every other daemon knob.
//!
//! Determinism contract: for a fixed request stream, the response stream
//! is byte-identical across transports, worker-pool sizes and cache states
//! (stats suffixes excluded — they carry wall times). The corpus replay
//! tests in `tests/` pin this.

// `deny` rather than `forbid`: the reactor's readiness polling ([`poll`])
// carries the crate's single `#[allow(unsafe_code)]` island — FFI
// declarations for epoll (plus the one-line `flock` shim the persistent
// cache's directory lock rides on) against the C library `std` already
// links. Everything else stays checked.
#![deny(unsafe_code)]

mod cache;
mod engine;
mod flight;
mod persist;
#[cfg(test)]
mod persist_fuzz;
pub mod poll;
mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
mod runner;
mod server;

pub use cache::{
    CacheStats, CanonicalDecisionCache, PersistStats, DEFAULT_CAPACITY, DEFAULT_DISK_CAPACITY,
    SHARD_COUNT,
};
pub use engine::{Capture, ServiceEngine, DEFAULT_MAX_CONNS, MAX_SESSIONS, MAX_SESSION_QUERIES};
pub use flight::{FlightKey, FlightStats, JoinOutcome, Singleflight};
pub use protocol::{escape, parse_request, render_response, unescape, Request, RequestStats};
pub use runner::{run_program_with, run_workbench_with, RunError};
pub use server::{daemon_main, serve};

/// The deadline fixture the engine and server tests share: under
/// [`SCHEMA`](explosion::SCHEMA), `Big ⊆ R` holds only after walking 2^19
/// membership-subset branches (see the core `explosion_pair` tests) — no
/// early refutation and no size-guard trip, so only a budget stops it. A
/// release build needs seconds for that walk, so a 40 ms deadline trips in
/// every profile. The inequality chain keeps the candidates asymmetric, so
/// the cache's canonical labeling stays cheap and the fixture measures the
/// branch walk alone (the labeling's own factorial regime is budgeted too —
/// see `limit_option_bounds_the_canonical_labeling_backtracking`).
#[cfg(test)]
mod explosion {
    pub(crate) const SCHEMA: &str = "class T1 {} class T2 { A: {T1}; }";

    pub(crate) const R: &str = "{ x | exists u, y: x in T1 & u in T1 & y in T2 & u not in y.A }";

    /// The left side: `x0` plus 19 chained candidates, a pinned member and
    /// a pinned non-member.
    pub(crate) fn big() -> String {
        let vars: Vec<String> = (1..=19).map(|i| format!("x{i}")).collect();
        let ranges: String = vars.iter().map(|v| format!(" & {v} in T1")).collect();
        let chain: String = vars
            .windows(2)
            .map(|w| format!(" & {} != {}", w[0], w[1]))
            .collect();
        format!(
            "{{ x0 | exists {}, z, y: x0 in T1{ranges}{chain} & z in T1 & y in T2 & x0 in y.A & z not in y.A }}",
            vars.join(", "),
        )
    }
}
