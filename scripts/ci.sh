#!/bin/sh
# The repository's CI gate: release build, full test suite, benchmark
# floors, oracle sweeps, lints, formatting.
#
#   scripts/ci.sh
#
# Environment:
#   OOCQ_CI_SKIP_HEAVY=1   skip the build and test stages (used by the
#                          in-tree smoke test, which already runs under
#                          `cargo test` and must not recurse into it)
#
# The fmt stage is skipped gracefully when rustfmt is not installed.
set -eu

cd "$(dirname "$0")/.."

if [ "${OOCQ_CI_SKIP_HEAVY:-0}" != "1" ]; then
    echo "ci: cargo build --release"
    cargo build --release
    echo "ci: cargo test -q"
    cargo test -q
    # The profile that ships: release builds decide faster, so a test that
    # races the engine against a wall clock can pass in debug and fail here.
    echo "ci: cargo test --release --no-fail-fast -q"
    cargo test --release --no-fail-fast -q
    # Failure-path gate: budgets, panic isolation, backpressure, and the
    # end-to-end deadline walkthrough must stay green by name, in both
    # profiles, so a rename or filter change can't silently drop them from
    # the suite.
    for profile in "" --release; do
        echo "ci: failure-path suite ${profile:-(debug)}"
        cargo test -q $profile -p oocq-core -- budget times_out timeout
        cargo test -q $profile -p oocq-service -- timeout times_out panicking \
            queue_bound read_error stranded
        cargo test -q $profile --test tooling -- oocq_serve_honors_a_request_deadline
    done
    # Allocation budget: a counting global allocator drives the in-process
    # reactor through hot define/define/contains operations and bounds
    # allocations per operation. Counts can differ between build profiles,
    # so the profile that ships runs it by name too.
    echo "ci: allocation budget (release)"
    cargo test -q --release -p oocq-service --test alloc_budget
    # Parser mutation sweep: tier-1 runs a short seed range; this longer
    # one in the shipped profile hunts panics, error positions outside the
    # input, and Display→parse round trips that do not hold.
    echo "ci: parser mutation sweep (release, 5000 seeds)"
    cargo test -q --release --test parser_fuzz -- --ignored
    # Decision-log mutation sweep: the same idea over the persistent
    # cache's frames — bit flips, truncations, spliced frames, dangling
    # and duplicate schema ids — through the log scanner and a cache open.
    echo "ci: decision-log mutation sweep (release, 5000 seeds)"
    cargo test -q --release -p oocq-service --lib -- --ignored persist_fuzz
    # Protocol mutation sweep: the same idea over request lines — byte
    # flips, truncations, spliced arguments, stray escapes and `limit=`
    # prefixes — through parse_request, asserting no panic, one-line
    # responses, and escape/unescape round trips.
    echo "ci: protocol mutation sweep (release, 5000 seeds)"
    cargo test -q --release -p oocq-service --test protocol_fuzz -- --ignored
    # Timing-sensitive gate: the deadline tests race the engine against a
    # wall clock, so a single green run says little about a flaky one.
    # Rerun them ten times in the shipped profile; any red run fails CI.
    echo "ci: deadline filters, 10 release reruns"
    run=1
    while [ "$run" -le 10 ]; do
        cargo test -q --release -p oocq-service -- timeout times_out
        cargo test -q --release --test tooling -- oocq_serve_honors_a_request_deadline
        run=$((run + 1))
    done
    # Benchmark build gate: perfbench links the core and service crates by
    # path from its own workspace, so an API change that breaks it would
    # otherwise go unnoticed until the benchmark runs. Same target dir as
    # perfbench/run.py, so it leaves nothing untracked behind.
    echo "ci: perfbench build"
    CARGO_TARGET_DIR=target cargo build --release --offline -q \
        --manifest-path perfbench/Cargo.toml
    # Pruning gate: bench_prune carries in-binary >=10x branch-reduction
    # floors; a quick run keeps the sub-lattice pruner and the
    # most-constrained-first search honest without re-measuring medians.
    echo "ci: bench_prune smoke (quick mode)"
    OOCQ_BENCH_QUICK=1 cargo run --release -q -p oocq-bench --bin bench_prune \
        -- target/BENCH_prune_smoke.json
    # Prepared-engine gate: bench_prepared asserts in-binary that the
    # prepared Engine returns the free functions' verdicts and clears a 2x
    # median floor over them; quick mode keeps both checks.
    echo "ci: bench_prepared smoke (quick mode)"
    OOCQ_BENCH_QUICK=1 cargo run --release -q -p oocq-bench --bin bench_prepared \
        -- target/BENCH_prepared_smoke.json
    # Constraint gate: bench_constrained asserts in-binary that declared
    # constraints still flip >=3 containment verdicts from fails to holds
    # through the theory hook; quick mode keeps that check without
    # re-measuring medians.
    echo "ci: bench_constrained smoke (quick mode)"
    OOCQ_BENCH_QUICK=1 cargo run --release -q -p oocq-bench --bin bench_constrained \
        -- target/BENCH_constrained_smoke.json
    # Persistence gate: the warm-restart walkthrough populates a cache
    # directory, SIGKILLs the daemon, restarts it over the same directory,
    # and asserts the verdict is served from the replayed log (hits, no
    # misses); bench_persist then re-asserts its in-binary >=5x
    # restart-vs-cold floor in quick mode.
    echo "ci: persistence suite"
    cargo test -q --test tooling -- oocq_serve_warm_restarts_from_the_persistent_cache
    echo "ci: bench_persist smoke (quick mode)"
    OOCQ_BENCH_QUICK=1 cargo run --release -q -p oocq-bench --bin bench_persist \
        -- target/BENCH_persist_smoke.json
    # Soundness gate: the differential oracle sweeps >=500 seeded pairs,
    # cross-checking every engine verdict against brute-force evaluation
    # and demanding a constructive witness for >=99% of refutations — the
    # definitization portfolio steers every refuted pair of this sweep.
    echo "ci: oracle_fuzz sweep (ci mode)"
    cargo run --release -q --bin oracle_fuzz -- --iterations ci
    # Constrained soundness gate: the same oracle over schemas with
    # declared disjoint/total/functional constraints, judged over
    # constraint-legal states only. Any legal-state refutation of a
    # constrained holds is a soundness violation and fails the run. The
    # confirmation gate is the *overall* rate and deliberately lower:
    # steering on constrained schemas must also land inside the legal
    # states, so the random-search fallback carries more of the load
    # (measured ~0.65 overall at 500 pairs).
    echo "ci: oracle_fuzz constrained sweep"
    cargo run --release -q --bin oracle_fuzz -- --constrained \
        --iterations 500 --min-confirm 0.5
    # Serving gate: bench_load carries an in-binary floor for singleflight
    # coalescing (>=5x the uncoalesced hot-key throughput); the quick
    # preset drives the reactor, the daemon's one TCP server, through its
    # cheap and hot-key phases end to end over real sockets.
    echo "ci: bench_load smoke (quick mode)"
    OOCQ_BENCH_QUICK=1 cargo run --release -q --bin bench_load \
        -- target/BENCH_load_smoke.json
    # Lint gate: warnings are errors across every target, tests included.
    # Lives inside the heavy guard because the in-tree smoke test runs
    # this script under `cargo test`, where a nested cargo build would
    # block on the build-directory lock.
    if cargo clippy --version >/dev/null 2>&1; then
        echo "ci: cargo clippy --workspace --all-targets -- -D warnings"
        cargo clippy --workspace --all-targets -q -- -D warnings
    else
        echo "ci: clippy not installed, skipping lint check"
    fi
else
    echo "ci: OOCQ_CI_SKIP_HEAVY=1, skipping build and test"
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "ci: cargo fmt --check"
    cargo fmt --all --check
else
    echo "ci: rustfmt not installed, skipping fmt check"
fi

echo "ci: ok"
